//! # rp4 — in-situ programmable switching (HotNets'21 reproduction)
//!
//! Umbrella crate re-exporting the full toolchain:
//!
//! | layer | crate | what it is |
//! |-------|-------|------------|
//! | packets | [`netpkt`] | dynamic headers, linkage graph, on-demand parsing |
//! | architecture | [`core`] | TSP templates, action VM, tables, memory pool, crossbar |
//! | languages | [`rp4_lang`], [`p4_lang`] | rP4 (Fig. 2 EBNF) and a P4-16 subset + HLIR |
//! | compilers | [`rp4c`] | rp4fc (P4→rP4) and rp4bc (full + incremental) |
//! | analysis | [`rp4_dfa`], [`rp4_equiv`], [`rp4_cover`] | AST lints (RP41xx, RP43xx); translation validation; path coverage + WCET bounds |
//! | devices | [`ipbm`], [`pisa_bm`] | the IPSA software switch and the PISA baseline |
//! | hardware | [`hwmodel`] | the FPGA resource/power/throughput model |
//! | control | [`controller`] | scripts, table APIs, the two design flows |
//!
//! ## Quickstart
//!
//! ```
//! use rp4::prelude::*;
//!
//! // Compile the bundled base L2/L3 design and install it on an ipbm
//! // switch.
//! let prog = rp4_lang::parse(controller::programs::BASE_RP4).unwrap();
//! let target = rp4c::CompilerTarget::ipbm();
//! let compilation = rp4c::full_compile(&prog, &target).unwrap();
//! let device = ipbm::IpbmSwitch::new(ipbm::IpbmConfig::default());
//! let (mut flow, _) = controller::Rp4Flow::install(device, compilation, target).unwrap();
//!
//! // In-situ update: load ECMP at runtime (Fig. 5(b)).
//! let outcome = flow
//!     .run_script(
//!         controller::programs::ECMP_SCRIPT,
//!         &controller::programs::bundled_sources,
//!     )
//!     .unwrap();
//! assert!(outcome.update_stats.unwrap().template_writes <= 3);
//! ```

pub use ipbm;
pub use ipsa_controller as controller;
pub use ipsa_core as core;
pub use ipsa_hwmodel as hwmodel;
pub use ipsa_netpkt as netpkt;
pub use p4_lang;
pub use pisa_bm;
pub use rp4_cover;
pub use rp4_dfa;
pub use rp4_equiv;
pub use rp4_lang;
pub use rp4c;

pub mod demo;
pub mod prelude;
