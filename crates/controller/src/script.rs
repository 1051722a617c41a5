//! The controller's command/script language.
//!
//! Mirrors the scripts of Fig. 5(b) and 5(c), plus table operations:
//!
//! ```text
//! load ecmp.rp4 --func_name ecmp
//! add_link ipv4_lpm ecmp
//! del_link ipv4_lpm nexthop
//! link_header --pre ipv6 --next srh --tag 43
//! unlink_header --pre ipv6 --next srh
//! unload --func_name ecmp
//! update probe_v2.rp4 --func_name probe
//! table_add fib set_nh 0x0a000000/8 => 42
//! table_add acl deny 0x0a000002&&&0xffffffff 53 prio=10
//! table_del fib 0x0a000000/8
//! table_default fib set_nh 1
//! ```
//!
//! Keys: `V` (exact/hash member), `V/len` (LPM), `V&&&M` (ternary).
//! `#` and `//` start comments.

/// One key field token of a table command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyToken {
    /// Exact value (also selector member index).
    Exact(u128),
    /// LPM prefix.
    Lpm {
        /// Prefix value.
        value: u128,
        /// Prefix length.
        prefix_len: usize,
    },
    /// Ternary value & mask.
    Ternary {
        /// Match value.
        value: u128,
        /// Care mask.
        mask: u128,
    },
}

/// One parsed script command.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptCmd {
    /// `load <file> --func_name <f>`
    Load {
        /// Snippet file name (resolved by the driver).
        file: String,
        /// Function name.
        func: String,
    },
    /// `unload --func_name <f>`
    Unload {
        /// Function name.
        func: String,
    },
    /// `update <file> --func_name <f>` — replace a loaded function with a
    /// revised snippet in one drain window (unload + load; the paper notes
    /// such changes "usually require less compiling time and data-plane
    /// modifications").
    Update {
        /// Revised snippet file.
        file: String,
        /// Function name.
        func: String,
    },
    /// `add_link <from> <to>`
    AddLink {
        /// Source stage.
        from: String,
        /// Destination stage.
        to: String,
    },
    /// `del_link <from> <to>`
    DelLink {
        /// Source stage.
        from: String,
        /// Destination stage.
        to: String,
    },
    /// `link_header --pre <h> --next <h> --tag <v>`
    LinkHeader {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
        /// Selector tag.
        tag: u128,
    },
    /// `unlink_header --pre <h> --next <h>`
    UnlinkHeader {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
    },
    /// `table_add <table> <action> <keys…> [=> <args…>] [prio=N]`
    TableAdd {
        /// Table name.
        table: String,
        /// Action name.
        action: String,
        /// Key fields.
        keys: Vec<KeyToken>,
        /// Action data.
        args: Vec<u128>,
        /// Ternary priority.
        priority: i32,
    },
    /// `table_del <table> <keys…>`
    TableDel {
        /// Table name.
        table: String,
        /// Key fields.
        keys: Vec<KeyToken>,
    },
    /// `table_default <table> <action> [args…]`
    TableDefault {
        /// Table name.
        table: String,
        /// Action name.
        action: String,
        /// Action data.
        args: Vec<u128>,
    },
}

/// Script parse error with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line.
    pub line: usize,
    /// Explanation.
    pub msg: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "script line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScriptError {}

fn parse_int(s: &str) -> Option<u128> {
    let s = s.replace('_', "");
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u128::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = s.strip_prefix("0b").or_else(|| s.strip_prefix("0B")) {
        u128::from_str_radix(bin, 2).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_key(s: &str) -> Option<KeyToken> {
    if let Some((v, m)) = s.split_once("&&&") {
        return Some(KeyToken::Ternary {
            value: parse_int(v)?,
            mask: parse_int(m)?,
        });
    }
    if let Some((v, l)) = s.split_once('/') {
        return Some(KeyToken::Lpm {
            value: parse_int(v)?,
            prefix_len: l.parse().ok()?,
        });
    }
    Some(KeyToken::Exact(parse_int(s)?))
}

/// Reads a `--flag value` pair set from tokens.
fn flag<'a>(tokens: &'a [&str], name: &str) -> Option<&'a str> {
    tokens
        .iter()
        .position(|t| *t == name)
        .and_then(|i| tokens.get(i + 1).copied())
}

/// Parses a full script.
pub fn parse_script(src: &str) -> Result<Vec<ScriptCmd>, ScriptError> {
    Ok(parse_lines(src)?.into_iter().map(|(_, cmd)| cmd).collect())
}

/// Parses a full script, tagging each command with its 1-based line.
pub(crate) fn parse_lines(src: &str) -> Result<Vec<(usize, ScriptCmd)>, ScriptError> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split("//").next().unwrap_or("");
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: String| ScriptError { line: line_no, msg };
        let cmd = match toks[0] {
            "load" => {
                let file = toks
                    .get(1)
                    .filter(|t| !t.starts_with("--"))
                    .ok_or_else(|| err("load needs a file".into()))?;
                let func = flag(&toks, "--func_name")
                    .ok_or_else(|| err("load needs --func_name".into()))?;
                ScriptCmd::Load {
                    file: file.to_string(),
                    func: func.to_string(),
                }
            }
            "update" => {
                let file = toks
                    .get(1)
                    .filter(|t| !t.starts_with("--"))
                    .ok_or_else(|| err("update needs a file".into()))?;
                let func = flag(&toks, "--func_name")
                    .ok_or_else(|| err("update needs --func_name".into()))?;
                ScriptCmd::Update {
                    file: file.to_string(),
                    func: func.to_string(),
                }
            }
            "unload" => {
                let func = flag(&toks, "--func_name")
                    .or_else(|| toks.get(1).copied().filter(|t| !t.starts_with("--")))
                    .ok_or_else(|| err("unload needs --func_name".into()))?;
                ScriptCmd::Unload {
                    func: func.to_string(),
                }
            }
            "add_link" | "del_link" => {
                let (from, to) = match (toks.get(1), toks.get(2)) {
                    (Some(a), Some(b)) => (a.to_string(), b.to_string()),
                    _ => return Err(err(format!("{} needs <from> <to>", toks[0]))),
                };
                if toks[0] == "add_link" {
                    ScriptCmd::AddLink { from, to }
                } else {
                    ScriptCmd::DelLink { from, to }
                }
            }
            "link_header" => {
                let pre = flag(&toks, "--pre").ok_or_else(|| err("needs --pre".into()))?;
                let next = flag(&toks, "--next").ok_or_else(|| err("needs --next".into()))?;
                let tag = flag(&toks, "--tag")
                    .and_then(parse_int)
                    .ok_or_else(|| err("needs --tag <int>".into()))?;
                ScriptCmd::LinkHeader {
                    pre: pre.to_string(),
                    next: next.to_string(),
                    tag,
                }
            }
            "unlink_header" => {
                let pre = flag(&toks, "--pre").ok_or_else(|| err("needs --pre".into()))?;
                let next = flag(&toks, "--next").ok_or_else(|| err("needs --next".into()))?;
                ScriptCmd::UnlinkHeader {
                    pre: pre.to_string(),
                    next: next.to_string(),
                }
            }
            "table_add" => {
                let table = toks.get(1).ok_or_else(|| err("needs <table>".into()))?;
                let action = toks.get(2).ok_or_else(|| err("needs <action>".into()))?;
                let mut keys = Vec::new();
                let mut args = Vec::new();
                let mut priority = 0i32;
                let mut in_args = false;
                for t in &toks[3..] {
                    if *t == "=>" {
                        in_args = true;
                    } else if let Some(p) = t.strip_prefix("prio=") {
                        priority = p.parse().map_err(|_| err(format!("bad priority `{p}`")))?;
                    } else if in_args {
                        args.push(parse_int(t).ok_or_else(|| err(format!("bad arg `{t}`")))?);
                    } else {
                        keys.push(parse_key(t).ok_or_else(|| err(format!("bad key `{t}`")))?);
                    }
                }
                ScriptCmd::TableAdd {
                    table: table.to_string(),
                    action: action.to_string(),
                    keys,
                    args,
                    priority,
                }
            }
            "table_del" => {
                let table = toks.get(1).ok_or_else(|| err("needs <table>".into()))?;
                let keys = toks[2..]
                    .iter()
                    .map(|t| parse_key(t).ok_or_else(|| err(format!("bad key `{t}`"))))
                    .collect::<Result<Vec<_>, _>>()?;
                ScriptCmd::TableDel {
                    table: table.to_string(),
                    keys,
                }
            }
            "table_default" => {
                let table = toks.get(1).ok_or_else(|| err("needs <table>".into()))?;
                let action = toks.get(2).ok_or_else(|| err("needs <action>".into()))?;
                let args = toks[3..]
                    .iter()
                    .map(|t| parse_int(t).ok_or_else(|| err(format!("bad arg `{t}`"))))
                    .collect::<Result<Vec<_>, _>>()?;
                ScriptCmd::TableDefault {
                    table: table.to_string(),
                    action: action.to_string(),
                    args,
                }
            }
            other => return Err(err(format!("unknown command `{other}`"))),
        };
        out.push((line_no, cmd));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The script of Fig. 5(b), adapted to our base design's stage names.
    #[test]
    fn parses_fig5b_style_script() -> Result<(), ScriptError> {
        let src = r#"
            load ecmp.rp4 --func_name ecmp
            add_link ipv4_lpm ecmp
            add_link ipv6_lpm ecmp
            del_link ipv4_lpm nexthop
            add_link ecmp l2_l3_rewrite
            del_link nexthop l2_l3_rewrite
            // omit ipv6's links
        "#;
        let cmds = parse_script(src)?;
        assert_eq!(cmds.len(), 6);
        assert_eq!(
            cmds[0],
            ScriptCmd::Load {
                file: "ecmp.rp4".into(),
                func: "ecmp".into()
            }
        );
        assert_eq!(
            cmds[3],
            ScriptCmd::DelLink {
                from: "ipv4_lpm".into(),
                to: "nexthop".into()
            }
        );
        Ok(())
    }

    /// The script of Fig. 5(c).
    #[test]
    fn parses_fig5c_style_script() -> Result<(), ScriptError> {
        let src = r#"
            load srv6.rp4 --func_name srv6
            link_header --pre ipv6 --next srh --tag 43
            link_header --pre srh --next ipv6 --tag 41 # inner IPv6
            link_header --pre srh --next ipv4 --tag 4  # inner IPv4
        "#;
        let cmds = parse_script(src)?;
        assert_eq!(cmds.len(), 4);
        assert_eq!(
            cmds[1],
            ScriptCmd::LinkHeader {
                pre: "ipv6".into(),
                next: "srh".into(),
                tag: 43
            }
        );
        Ok(())
    }

    #[test]
    fn parses_table_commands() -> Result<(), ScriptError> {
        let cmds = parse_script(
            r#"
            table_add fib set_nh 0x0a000000/8 => 42
            table_add acl deny 0x0a000002&&&0xffffffff 53 prio=10
            table_del fib 0x0a000000/8
            table_default fib set_nh 7
        "#,
        )?;
        assert_eq!(
            cmds[0],
            ScriptCmd::TableAdd {
                table: "fib".into(),
                action: "set_nh".into(),
                keys: vec![KeyToken::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8
                }],
                args: vec![42],
                priority: 0,
            }
        );
        let ScriptCmd::TableAdd {
            keys,
            priority,
            args,
            ..
        } = &cmds[1]
        else {
            return Err(ScriptError {
                line: 0,
                msg: format!("expected TableAdd, got {:?}", cmds[1]),
            });
        };
        assert_eq!(keys.len(), 2);
        assert!(matches!(keys[0], KeyToken::Ternary { .. }));
        assert_eq!(keys[1], KeyToken::Exact(53));
        assert_eq!(*priority, 10);
        assert!(args.is_empty());
        assert!(matches!(&cmds[2], ScriptCmd::TableDel { keys, .. } if keys.len() == 1));
        assert!(matches!(&cmds[3], ScriptCmd::TableDefault { args, .. } if args == &[7]));
        Ok(())
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_script("add_link a b\nwarp_drive on").expect_err("unknown command");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("warp_drive"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() -> Result<(), ScriptError> {
        let cmds = parse_script("\n# full comment\n  // another\nunload --func_name f\n")?;
        assert_eq!(cmds.len(), 1);
        Ok(())
    }

    #[test]
    fn update_command_parses() -> Result<(), ScriptError> {
        let cmds = parse_script("update probe2.rp4 --func_name probe")?;
        assert_eq!(
            cmds[0],
            ScriptCmd::Update {
                file: "probe2.rp4".into(),
                func: "probe".into()
            }
        );
        assert!(parse_script("update --func_name probe").is_err());
        Ok(())
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The script parser never panics on arbitrary near-grammar
            /// input.
            #[test]
            fn parser_total(src in "[a-z0-9_ /&#=>.\\n-]{0,300}") {
                let _ = parse_script(&src);
            }

            /// table_add commands roundtrip through formatting: rendering a
            /// parsed command back to text reparses identically.
            #[test]
            fn table_add_roundtrip(
                table in "[a-z][a-z0-9_]{0,8}",
                action in "[a-z][a-z0-9_]{0,8}",
                exact in any::<u64>(),
                plen in 0usize..=128,
                value in any::<u64>(),
                args in proptest::collection::vec(any::<u64>(), 0..3),
                prio in 0i32..1000,
            ) {
                let args_s = if args.is_empty() {
                    String::new()
                } else {
                    format!(
                        " => {}",
                        args.iter().map(|a| format!("{a:#x}")).collect::<Vec<_>>().join(" ")
                    )
                };
                let line = format!(
                    "table_add {table} {action} {exact:#x} {value:#x}/{plen}{args_s} prio={prio}"
                );
                let cmds = parse_script(&line).map_err(|e| {
                    proptest::test_runner::TestCaseError::Fail(e.to_string())
                })?;
                prop_assert_eq!(
                    &cmds[0],
                    &ScriptCmd::TableAdd {
                        table: table.clone(),
                        action: action.clone(),
                        keys: vec![
                            KeyToken::Exact(exact as u128),
                            KeyToken::Lpm { value: value as u128, prefix_len: plen },
                        ],
                        args: args.iter().map(|a| *a as u128).collect(),
                        priority: prio,
                    }
                );
            }
        }
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(parse_script("load x.rp4").is_err());
        assert!(parse_script("link_header --pre a --next b").is_err());
        assert!(parse_script("table_add t a zzz").is_err());
    }
}
