//! The `.scn` text format: render and parse [`Scenario`] values.
//!
//! Line-based, diffable, commit-friendly. The canonical form (what
//! [`render`] emits) is what [`Scenario::fingerprint`] hashes, and golden
//! `.scn` files are stored canonically so byte comparison works.
//!
//! ```text
//! # ssmdst scenario v1
//! name = edge-churn-async
//! topology = family:gnp-sparse n=12 seed=1
//! scheduler = async:11
//! config = default
//! init = fraction=0.5 drop=0 seed=9
//! stop = max-rounds=40000 quiet=auto
//! event = stable churn -edge(2,5)
//! event = round:120 fault fraction=0.25 drop=0 seed=7
//! ```

use crate::spec::{
    ConfigSpec, CorruptSpec, EventAction, ProtocolSpec, Scenario, ScenarioEvent, SchedSpec,
    StopSpec, Timing, TopologySpec,
};
use ssmdst_graph::generators::GraphFamily;
use ssmdst_sim::{Backend, ChurnEvent, NodeId};

/// Render a scenario in canonical `.scn` form.
pub fn render(s: &Scenario) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("# ssmdst scenario v1\n");
    let _ = writeln!(out, "name = {}", s.name);
    // The default protocol is omitted so pre-registry scenario texts (and
    // their fingerprints and golden traces) stay byte-identical.
    if s.protocol != ProtocolSpec::default() {
        let _ = writeln!(out, "protocol = {}", s.protocol.label());
    }
    let _ = writeln!(out, "topology = {}", render_topology(&s.topology));
    let _ = writeln!(out, "scheduler = {}", render_scheduler(&s.scheduler));
    let _ = writeln!(out, "config = {}", render_config(&s.config));
    if let Some(c) = &s.init_corrupt {
        let _ = writeln!(
            out,
            "init = fraction={} drop={} seed={}",
            c.fraction, c.drop, c.seed
        );
    }
    let quiet = match s.stop.quiet {
        None => "auto".to_string(),
        Some(q) => q.to_string(),
    };
    let _ = writeln!(
        out,
        "stop = max-rounds={} quiet={}",
        s.stop.max_rounds, quiet
    );
    for ev in &s.events {
        let timing = match ev.timing {
            Timing::Stable => "stable".to_string(),
            Timing::Round(r) => format!("round:{r}"),
        };
        let action = match &ev.action {
            EventAction::Fault(c) => {
                format!(
                    "fault fraction={} drop={} seed={}",
                    c.fraction, c.drop, c.seed
                )
            }
            EventAction::Churn(c) => format!("churn {}", render_churn(c)),
        };
        let _ = writeln!(out, "event = {timing} {action}");
    }
    out
}

fn render_topology(t: &TopologySpec) -> String {
    match t {
        TopologySpec::Family { family, n, seed } => format!("family:{family} n={n} seed={seed}"),
        TopologySpec::Path { n } => format!("path n={n}"),
        TopologySpec::Cycle { n } => format!("cycle n={n}"),
        TopologySpec::StarRing { n } => format!("star-ring n={n}"),
        TopologySpec::MultiHub { hubs, spokes } => format!("multi-hub hubs={hubs} spokes={spokes}"),
        TopologySpec::CompleteBipartite { a, b } => format!("complete-bipartite a={a} b={b}"),
    }
}

fn render_scheduler(s: &SchedSpec) -> String {
    match s {
        SchedSpec::Synchronous => "sync".to_string(),
        SchedSpec::RandomAsync { seed } => format!("async:{seed}"),
        SchedSpec::Adversarial { seed } => format!("adversarial:{seed}"),
    }
}

fn render_config(c: &ConfigSpec) -> &'static str {
    match c {
        ConfigSpec::Default => "default",
        ConfigSpec::Strict => "strict",
        ConfigSpec::NoDeblock => "no-deblock",
        ConfigSpec::NoBusyLatch => "no-busy-latch",
    }
}

/// Parseable churn rendering. Differs from the [`ChurnEvent`] `Display`
/// form only for partitions/heals, whose full cut list must survive the
/// round trip (`Display` compresses it to `|cut|`).
pub fn render_churn(ev: &ChurnEvent) -> String {
    let cut_list = |cut: &[(NodeId, NodeId)]| {
        cut.iter()
            .map(|(u, v)| format!("{u}-{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    match ev {
        ChurnEvent::RemoveEdge(u, v) => format!("-edge({u},{v})"),
        ChurnEvent::InsertEdge(u, v) => format!("+edge({u},{v})"),
        ChurnEvent::CrashNode(v) => format!("crash({v})"),
        ChurnEvent::RejoinNode(v) => format!("rejoin({v})"),
        ChurnEvent::Partition(cut) => format!("partition({})", cut_list(cut)),
        ChurnEvent::Heal(cut) => format!("heal({})", cut_list(cut)),
    }
}

/// Parse the churn rendering produced by [`render_churn`].
pub fn parse_churn(s: &str) -> Result<ChurnEvent, String> {
    let (kind, args) = s
        .split_once('(')
        .and_then(|(k, rest)| rest.strip_suffix(')').map(|a| (k, a)))
        .ok_or_else(|| format!("bad churn event {s:?} (expected kind(args))"))?;
    let node = |a: &str| {
        a.parse::<NodeId>()
            .map_err(|e| format!("bad node id {a:?}: {e}"))
    };
    let pair = |a: &str| -> Result<(NodeId, NodeId), String> {
        let (u, v) = a
            .split_once(',')
            .ok_or_else(|| format!("expected u,v in {a:?}"))?;
        Ok((node(u.trim())?, node(v.trim())?))
    };
    let cut = |a: &str| -> Result<Vec<(NodeId, NodeId)>, String> {
        if a.is_empty() {
            return Ok(Vec::new());
        }
        a.split(',')
            .map(|e| {
                let (u, v) = e
                    .split_once('-')
                    .ok_or_else(|| format!("expected u-v in {e:?}"))?;
                Ok((node(u.trim())?, node(v.trim())?))
            })
            .collect()
    };
    match kind {
        "-edge" => pair(args).map(|(u, v)| ChurnEvent::RemoveEdge(u, v)),
        "+edge" => pair(args).map(|(u, v)| ChurnEvent::InsertEdge(u, v)),
        "crash" => node(args.trim()).map(ChurnEvent::CrashNode),
        "rejoin" => node(args.trim()).map(ChurnEvent::RejoinNode),
        "partition" => cut(args).map(ChurnEvent::Partition),
        "heal" => cut(args).map(ChurnEvent::Heal),
        other => Err(format!("unknown churn kind {other:?}")),
    }
}

/// Parse `.scn` text into a [`Scenario`]. Validates topology parameters
/// (unknown families and out-of-range sizes are parse errors, so
/// [`TopologySpec::build`] cannot panic on a parsed scenario).
pub fn parse(text: &str) -> Result<Scenario, String> {
    let mut name = None;
    let mut protocol = ProtocolSpec::default();
    let mut backend = Backend::default();
    let mut topology = None;
    let mut scheduler = None;
    let mut config = ConfigSpec::Default;
    let mut init_corrupt = None;
    let mut stop = None;
    let mut events = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
        let ctx = |e: String| format!("line {}: {e}", lineno + 1);
        match key {
            "name" => {
                if value.is_empty() || value.contains(char::is_whitespace) {
                    return Err(ctx(format!("name must be one token, got {value:?}")));
                }
                name = Some(value.to_string());
            }
            "protocol" => protocol = ProtocolSpec::parse(value).map_err(ctx)?,
            // `backend = reference` still parses (the only round loop);
            // any other name is a listed-options parse error.
            "backend" => backend = Backend::parse(value).map_err(ctx)?,
            "topology" => topology = Some(parse_topology(value).map_err(ctx)?),
            "scheduler" => scheduler = Some(parse_scheduler(value).map_err(ctx)?),
            "config" => config = parse_config(value).map_err(ctx)?,
            "init" => init_corrupt = Some(parse_corrupt(value).map_err(ctx)?),
            "stop" => stop = Some(parse_stop(value).map_err(ctx)?),
            "event" => events.push(parse_event(value).map_err(ctx)?),
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    Ok(Scenario {
        name: name.ok_or("missing name line")?,
        protocol,
        backend,
        topology: topology.ok_or("missing topology line")?,
        scheduler: scheduler.ok_or("missing scheduler line")?,
        config,
        init_corrupt,
        events,
        stop: stop.ok_or("missing stop line")?,
    })
}

/// Split `k1=v1 k2=v2 …` fields into lookups.
fn fields(s: &str) -> Result<Vec<(&str, &str)>, String> {
    s.split_whitespace()
        .map(|tok| {
            tok.split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))
        })
        .collect()
}

fn get<'a>(fs: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    fs.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing field {key}="))
}

fn int<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_topology(s: &str) -> Result<TopologySpec, String> {
    let (head, rest) = s.split_once(' ').unwrap_or((s, ""));
    let fs = fields(rest)?;
    let spec = if let Some(label) = head.strip_prefix("family:") {
        if !GraphFamily::all().iter().any(|f| f.label() == label) {
            return Err(format!("unknown graph family {label:?}"));
        }
        let n = int(get(&fs, "n")?)?;
        if n < 4 {
            return Err(format!("family topologies need n >= 4, got {n}"));
        }
        TopologySpec::Family {
            family: label.to_string(),
            n,
            seed: int(get(&fs, "seed")?)?,
        }
    } else {
        match head {
            "path" => {
                let n = int(get(&fs, "n")?)?;
                if n < 2 {
                    return Err(format!("path needs n >= 2, got {n}"));
                }
                TopologySpec::Path { n }
            }
            "cycle" => {
                let n = int(get(&fs, "n")?)?;
                if n < 3 {
                    return Err(format!("cycle needs n >= 3, got {n}"));
                }
                TopologySpec::Cycle { n }
            }
            "star-ring" => {
                let n = int(get(&fs, "n")?)?;
                if n < 4 {
                    return Err(format!("star-ring needs n >= 4, got {n}"));
                }
                TopologySpec::StarRing { n }
            }
            "multi-hub" => {
                let hubs = int(get(&fs, "hubs")?)?;
                let spokes = int(get(&fs, "spokes")?)?;
                if hubs < 2 || spokes < 3 {
                    return Err("multi-hub needs hubs >= 2 and spokes >= 3".to_string());
                }
                TopologySpec::MultiHub { hubs, spokes }
            }
            "complete-bipartite" => {
                let a = int(get(&fs, "a")?)?;
                let b = int(get(&fs, "b")?)?;
                if a == 0 || b == 0 {
                    return Err("complete-bipartite needs a, b >= 1".to_string());
                }
                TopologySpec::CompleteBipartite { a, b }
            }
            other => return Err(format!("unknown topology {other:?}")),
        }
    };
    Ok(spec)
}

fn parse_scheduler(s: &str) -> Result<SchedSpec, String> {
    if s == "sync" {
        return Ok(SchedSpec::Synchronous);
    }
    if let Some(seed) = s.strip_prefix("async:") {
        return Ok(SchedSpec::RandomAsync { seed: int(seed)? });
    }
    if let Some(seed) = s.strip_prefix("adversarial:") {
        return Ok(SchedSpec::Adversarial { seed: int(seed)? });
    }
    Err(format!(
        "unknown scheduler {s:?} (sync | async:SEED | adversarial:SEED)"
    ))
}

fn parse_config(s: &str) -> Result<ConfigSpec, String> {
    match s {
        "default" => Ok(ConfigSpec::Default),
        "strict" => Ok(ConfigSpec::Strict),
        "no-deblock" => Ok(ConfigSpec::NoDeblock),
        "no-busy-latch" => Ok(ConfigSpec::NoBusyLatch),
        other => Err(format!("unknown config {other:?}")),
    }
}

fn parse_corrupt(s: &str) -> Result<CorruptSpec, String> {
    let fs = fields(s)?;
    let frac = |s: &str| {
        s.parse::<f64>()
            .map_err(|e| format!("bad fraction {s:?}: {e}"))
    };
    let fraction = frac(get(&fs, "fraction")?)?;
    let drop = frac(get(&fs, "drop")?)?;
    if !(0.0..=1.0).contains(&fraction) || !(0.0..=1.0).contains(&drop) {
        return Err(format!(
            "fraction/drop must be in 0..=1, got {fraction}/{drop}"
        ));
    }
    Ok(CorruptSpec {
        fraction,
        drop,
        seed: int(get(&fs, "seed")?)?,
    })
}

fn parse_stop(s: &str) -> Result<StopSpec, String> {
    let fs = fields(s)?;
    let quiet = match get(&fs, "quiet")? {
        "auto" => None,
        q => Some(int(q)?),
    };
    Ok(StopSpec {
        max_rounds: int(get(&fs, "max-rounds")?)?,
        quiet,
    })
}

fn parse_event(s: &str) -> Result<ScenarioEvent, String> {
    let (timing_tok, rest) = s
        .split_once(' ')
        .ok_or_else(|| format!("expected TIMING ACTION, got {s:?}"))?;
    let timing = if timing_tok == "stable" {
        Timing::Stable
    } else if let Some(r) = timing_tok.strip_prefix("round:") {
        Timing::Round(int(r)?)
    } else {
        return Err(format!("unknown timing {timing_tok:?} (stable | round:R)"));
    };
    let (kind, args) = rest
        .split_once(' ')
        .ok_or_else(|| format!("expected ACTION args, got {rest:?}"))?;
    let action = match kind {
        "fault" => EventAction::Fault(parse_corrupt(args)?),
        "churn" => EventAction::Churn(parse_churn(args.trim())?),
        other => return Err(format!("unknown event action {other:?}")),
    };
    Ok(ScenarioEvent { timing, action })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_scenario() -> Scenario {
        Scenario {
            name: "everything".into(),
            protocol: ProtocolSpec::Mdst,
            backend: Backend::Reference,
            topology: TopologySpec::Family {
                family: "gnp-sparse".into(),
                n: 12,
                seed: 1,
            },
            scheduler: SchedSpec::Adversarial { seed: 11 },
            config: ConfigSpec::Strict,
            init_corrupt: Some(CorruptSpec {
                fraction: 0.5,
                drop: 1.0,
                seed: 9,
            }),
            events: vec![
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RemoveEdge(2, 5))),
                ScenarioEvent {
                    timing: Timing::Round(120),
                    action: EventAction::Fault(CorruptSpec {
                        fraction: 0.25,
                        drop: 0.0,
                        seed: 7,
                    }),
                },
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::Partition(vec![
                    (0, 1),
                    (4, 5),
                ]))),
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::Heal(vec![(0, 1), (4, 5)]))),
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::CrashNode(3))),
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::RejoinNode(3))),
                ScenarioEvent::stable(EventAction::Churn(ChurnEvent::InsertEdge(2, 5))),
            ],
            stop: StopSpec {
                max_rounds: 40_000,
                quiet: Some(72),
            },
        }
    }

    #[test]
    fn render_parse_round_trips_every_construct() {
        let s = full_scenario();
        let text = render(&s);
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed, s);
        assert_eq!(render(&parsed), text, "render is canonical");
    }

    #[test]
    fn every_topology_variant_round_trips() {
        let topos = [
            TopologySpec::Path { n: 6 },
            TopologySpec::Cycle { n: 8 },
            TopologySpec::StarRing { n: 8 },
            TopologySpec::MultiHub { hubs: 2, spokes: 4 },
            TopologySpec::CompleteBipartite { a: 2, b: 6 },
            TopologySpec::Family {
                family: "spider".into(),
                n: 16,
                seed: 3,
            },
        ];
        for t in topos {
            let mut s = Scenario::converge("t", t, SchedSpec::Synchronous, 100);
            s.stop.quiet = None; // exercise quiet=auto
            let parsed = parse(&render(&s)).expect("round trip");
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn churn_rendering_round_trips_including_cuts() {
        let evs = [
            ChurnEvent::RemoveEdge(1, 2),
            ChurnEvent::InsertEdge(3, 4),
            ChurnEvent::CrashNode(0),
            ChurnEvent::RejoinNode(9),
            ChurnEvent::Partition(vec![]),
            ChurnEvent::Partition(vec![(0, 1)]),
            ChurnEvent::Heal(vec![(0, 1), (2, 3), (10, 20)]),
        ];
        for ev in evs {
            let text = render_churn(&ev);
            assert_eq!(parse_churn(&text).expect("round trip"), ev, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_scenarios() {
        // Structural problems.
        assert!(parse("").is_err(), "empty");
        assert!(parse("name = a\nstop = max-rounds=1 quiet=auto").is_err());
        assert!(parse("garbage").is_err());
        // Unknown family / bad ranges caught at parse time.
        let base = |topo: &str| {
            format!(
                "name = x\ntopology = {topo}\nscheduler = sync\nstop = max-rounds=10 quiet=auto"
            )
        };
        assert!(parse(&base("family:unknown n=8 seed=1")).is_err());
        assert!(parse(&base("family:gnp-sparse n=2 seed=1")).is_err());
        assert!(parse(&base("cycle n=2")).is_err());
        assert!(parse(&base("multi-hub hubs=1 spokes=3")).is_err());
        assert!(parse(&base("complete-bipartite a=0 b=3")).is_err());
        // Bad scheduler / config / event lines.
        let ok_head = "name = x\ntopology = path n=4\n";
        assert!(parse(&format!(
            "{ok_head}scheduler = turbo\nstop = max-rounds=10 quiet=auto"
        ))
        .is_err());
        assert!(parse(&format!(
            "{ok_head}scheduler = sync\nconfig = spicy\nstop = max-rounds=10 quiet=auto"
        ))
        .is_err());
        assert!(parse(&format!(
            "{ok_head}scheduler = sync\nstop = max-rounds=10 quiet=auto\nevent = someday churn crash(1)"
        ))
        .is_err());
        assert!(parse(&format!(
            "{ok_head}scheduler = sync\nstop = max-rounds=10 quiet=auto\nevent = stable churn explode(1)"
        ))
        .is_err());
        assert!(parse(&format!(
            "{ok_head}scheduler = sync\ninit = fraction=1.5 drop=0 seed=1\nstop = max-rounds=10 quiet=auto"
        ))
        .is_err());
        // Unknown backend: a listed-options error, not a silent
        // fall-through to the reference loop.
        for bad in ["warp", "batched", "soa", "sharded", "sharded:3"] {
            let err = parse(&format!(
                "{ok_head}backend = {bad}\nscheduler = sync\nstop = max-rounds=10 quiet=auto"
            ))
            .unwrap_err();
            assert!(
                err.contains(&format!("{bad:?}")),
                "names the bad backend: {err}"
            );
            assert!(err.contains("reference"), "lists the options: {err}");
        }
    }

    /// The protocol line round-trips when non-default and is *absent*
    /// from the canonical rendering when default — the byte-compat
    /// contract for pre-registry `.scn` files and fingerprints.
    #[test]
    fn protocol_line_round_trips_and_default_is_omitted() {
        let mdst = Scenario::converge(
            "m",
            TopologySpec::Path { n: 4 },
            SchedSpec::Synchronous,
            100,
        );
        let text = render(&mdst);
        assert!(!text.contains("protocol ="), "default must be omitted");
        assert_eq!(parse(&text).unwrap().protocol, ProtocolSpec::Mdst);

        let mut flood = mdst.clone();
        flood.protocol = ProtocolSpec::FloodEcho;
        let text = render(&flood);
        assert!(text.contains("protocol = flood-echo"), "{text}");
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, flood);
        assert_ne!(
            flood.fingerprint(),
            mdst.fingerprint(),
            "protocol is replay identity"
        );
        // Explicit `protocol = mdst` parses but is not canonical.
        let explicit = "name = m\nprotocol = mdst\ntopology = path n=4\nscheduler = sync\nstop = max-rounds=100 quiet=auto\n";
        assert_eq!(parse(explicit).unwrap(), mdst);
        assert!(parse("name = x\nprotocol = turbo\ntopology = path n=4\nscheduler = sync\nstop = max-rounds=10 quiet=auto").is_err());
    }

    /// The canonical rendering never carries a backend line, and an
    /// explicit `backend = reference` parses to the same scenario with the
    /// same fingerprint.
    #[test]
    fn backend_line_round_trips_and_is_fingerprint_neutral() {
        let reference = Scenario::converge(
            "b",
            TopologySpec::Path { n: 4 },
            SchedSpec::Synchronous,
            100,
        );
        let text = render(&reference);
        assert!(!text.contains("backend ="), "default must be omitted");
        assert_eq!(parse(&text).unwrap().backend, Backend::Reference);

        // Explicit `backend = reference` parses but is not canonical.
        let explicit = "name = b\nbackend = reference\ntopology = path n=4\nscheduler = sync\nstop = max-rounds=100 quiet=auto\n";
        let parsed = parse(explicit).unwrap();
        assert_eq!(parsed, reference);
        assert_eq!(parsed.fingerprint(), reference.fingerprint());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# comment\n\nname = c\n# another\ntopology = cycle n=5\n\nscheduler = async:3\nstop = max-rounds=50 quiet=auto\n";
        let s = parse(text).expect("parses");
        assert_eq!(s.name, "c");
        assert_eq!(s.scheduler, SchedSpec::RandomAsync { seed: 3 });
    }
}
