//! Output checks, run untimed on the device that is then measured.
//!
//! - the first burst through `run_batch` matches the reference interpreter
//!   (`Device::run` on a twin single-core device) bit for bit — as a
//!   multiset on the sharded runtime, whose inter-flow order is
//!   unspecified; in a traced run, so does the traced journey;
//! - after each in-situ load the use case's behaviour holds, the load
//!   wrote no table entries, and after rollback the base outputs return.

use ipsa_controller::{programs, Checkpoint};
use ipsa_core::control::Device;
use ipsa_netpkt::packet::Packet;

use crate::gen::{ipv4_dst, ipv6_dst, Frames, ECMP_DST, SRV6_NEXT, SRV6_SID};
use crate::run::{traced_outputs, Io, Tally};
use crate::setup::{Bench, Target, UseCase};

/// What a receiver can observe of one output: bytes, egress port, mark.
pub type Observed = (Vec<u8>, Option<u16>, u128);

fn observe(out: Vec<Packet>) -> Vec<Observed> {
    out.into_iter()
        .map(|p| (p.data, p.meta.egress_port, p.meta.mark))
        .collect()
}

fn inject_burst<D: Device>(dev: &mut D, frames: &Frames, b: usize) {
    for (bytes, port) in frames.burst(b) {
        dev.inject(Packet::new(bytes.to_vec(), port));
    }
}

/// Burst `b` through the reference interpreter.
pub fn interpret<D: Device>(dev: &mut D, frames: &Frames, b: usize) -> Vec<Observed> {
    inject_burst(dev, frames, b);
    observe(dev.run())
}

/// Burst `b` through the batch path.
pub fn forward<D: Device>(dev: &mut D, frames: &Frames, b: usize) -> Vec<Observed> {
    inject_burst(dev, frames, b);
    observe(dev.run_batch())
}

/// Equal in order, or as multisets when `ordered` is false.
fn same(a: &[Observed], b: &[Observed], ordered: bool) -> bool {
    if ordered {
        return a == b;
    }
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort();
    b.sort();
    a == b
}

/// Runs every preflight check on `b`. `reference` is burst 0 through the
/// interpreter on a single-core twin; `traced` adds the check of the
/// traced journey.
pub fn preflight<D: Target>(
    b: &mut Bench<D>,
    io: &mut Io,
    reference: &[Observed],
    cases: &[UseCase; 3],
    cp: &Checkpoint,
    traced: bool,
    tally: &mut Tally,
) {
    let ordered = b.flow.device.dev.sharded().is_none();
    let base = forward(&mut b.flow.device, &b.frames, 0);
    tally.check(same(&base, reference, ordered), || {
        format!(
            "first burst: run_batch and the reference interpreter differ ({} vs {} outputs)",
            base.len(),
            reference.len()
        )
    });

    if traced {
        let journey = observe(traced_outputs(
            &mut b.flow.device,
            io,
            b.frames.burst(0),
            tally,
        ));
        tally.check(same(&journey, &base, ordered), || {
            "first burst: the traced journey and run_batch differ".to_string()
        });
    }

    for (c, case) in cases.iter().enumerate() {
        let name = case.name;
        let loaded = b
            .flow
            .run_script(case.script, &programs::bundled_sources)
            .and_then(|o| {
                b.flow
                    .run_script(&case.populate, &programs::bundled_sources)
                    .map(|_| o)
            });
        match loaded {
            Ok(o) => tally.check(o.report.entries_written == 0, || {
                format!(
                    "{name}: in-situ load wrote {} table entries",
                    o.report.entries_written
                )
            }),
            Err(e) => {
                tally.check(false, || format!("{name}: load failed: {e}"));
                continue;
            }
        }
        let sent = b.case_frames[c].burst(0).map(|(f, _)| f.to_vec());
        let sent: Vec<Vec<u8>> = sent.collect();
        let out = forward(&mut b.flow.device, &b.case_frames[c], 0);
        tally.check(out.len() == sent.len(), || {
            format!("{name}: {} of {} packets emitted", out.len(), sent.len())
        });
        match c {
            0 => {
                let mut ports: Vec<_> = out
                    .iter()
                    .filter(|(data, _, _)| ipv4_dst(data) == Some(ECMP_DST))
                    .map(|(_, port, _)| *port)
                    .collect();
                ports.sort();
                ports.dedup();
                tally.check(ports.len() > 1, || {
                    format!("C1: one destination left on ports {ports:?}, expected a spread")
                });
            }
            1 => {
                let addressed = sent
                    .iter()
                    .filter(|f| ipv6_dst(f) == Some(SRV6_SID))
                    .count();
                let rewritten = out
                    .iter()
                    .filter(|(data, _, _)| ipv6_dst(data) == Some(SRV6_NEXT))
                    .count();
                tally.check(addressed > 0 && rewritten == addressed, || {
                    format!("C2: {rewritten} of {addressed} SRv6 destinations rewritten")
                });
            }
            _ => {
                let marked = out.iter().filter(|(_, _, mark)| *mark == 1).count();
                tally.check(marked > 0, || {
                    "C3: the heavy flow was never marked".to_string()
                });
            }
        }

        let back = b.flow.rollback(cp).and_then(|r| {
            if case.restore.is_empty() {
                return Ok(r);
            }
            b.flow
                .run_script(case.restore, &programs::bundled_sources)
                .map(|_| r)
        });
        if let Err(e) = back {
            tally.check(false, || format!("{name}: rollback failed: {e}"));
            continue;
        }
        let after = forward(&mut b.flow.device, &b.frames, 0);
        tally.check(same(&after, &base, ordered), || {
            format!("{name}: base outputs did not return after rollback")
        });
    }
}
