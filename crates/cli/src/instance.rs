//! Text format for migration instances (transfer graph + capacities).
//!
//! Extends the `dmig-graph` edge-list format with capacity directives:
//!
//! ```text
//! # disks and transfer constraints
//! nodes 4
//! default_cap 2
//! cap 0 4          # disk 0 can run 4 transfers at a time
//! caps 4 2 2 1     # alternatively: the whole vector at once
//! edge 0 1
//! edge 0 1
//! edge 2 3
//! ```
//!
//! `default_cap` (default 1) applies to disks not covered by `cap`/`caps`.
//! Each directive takes exactly its arguments; a trailing token is an
//! error. A `nodes` count, wherever it appears, bounds every disk index
//! (edge endpoints, `cap` disks and the length of `caps`); without one the
//! disk count is inferred. Every error names its line.

use std::fmt::Write as _;

use dmig_core::{Capacities, MigrationProblem, ProblemError};
use dmig_graph::{GraphError, Multigraph, NodeId};

/// Errors from parsing an instance file.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InstanceError {
    /// Graph-level parse problem.
    Graph(GraphError),
    /// Instance-level validation problem.
    Problem(ProblemError),
    /// Instance-specific directive problem.
    Directive {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Graph(e) => write!(f, "{e}"),
            InstanceError::Problem(e) => write!(f, "{e}"),
            InstanceError::Directive { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<GraphError> for InstanceError {
    fn from(e: GraphError) -> Self {
        InstanceError::Graph(e)
    }
}

impl From<ProblemError> for InstanceError {
    fn from(e: ProblemError) -> Self {
        InstanceError::Problem(e)
    }
}

/// Parses an instance from the text format described at module level.
///
/// # Errors
///
/// Returns [`InstanceError`] on malformed directives, graph errors, or
/// instance validation failures.
pub fn parse_instance(text: &str) -> Result<MigrationProblem, InstanceError> {
    let directive = |line: usize, message: String| InstanceError::Directive { line, message };
    let mut declared_nodes: Option<usize> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Largest edge endpoint so far and the first line that reached it.
    let mut widest: Option<(usize, usize)> = None;
    let mut default_cap = 1u32;
    let mut caps_vec: Option<(Vec<u32>, usize)> = None;
    let mut cap_overrides: Vec<(usize, u32, usize)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line_no = lineno + 1;
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or_default();
        let mut next_num = |what: &str| -> Result<usize, InstanceError> {
            parts
                .next()
                .ok_or_else(|| directive(line_no, format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|_| directive(line_no, format!("invalid {what}")))
        };
        let capacity = |c: usize| {
            u32::try_from(c).map_err(|_| directive(line_no, "capacity too large".to_string()))
        };
        match keyword {
            "nodes" => declared_nodes = Some(next_num("node count")?),
            "edge" => {
                let u = next_num("edge endpoint")?;
                let v = next_num("edge endpoint")?;
                let top = u.max(v);
                if widest.map_or(true, |(w, _)| top > w) {
                    widest = Some((top, line_no));
                }
                edges.push((u, v));
            }
            "default_cap" => default_cap = capacity(next_num("capacity")?)?,
            "cap" => {
                let v = next_num("disk index")?;
                let c = capacity(next_num("capacity")?)?;
                cap_overrides.push((v, c, line_no));
            }
            "caps" => {
                let mut values = Vec::new();
                for tok in parts.by_ref() {
                    let c = tok
                        .parse::<u32>()
                        .map_err(|_| directive(line_no, format!("invalid capacity `{tok}`")))?;
                    values.push(c);
                }
                if values.is_empty() {
                    return Err(directive(
                        line_no,
                        "caps needs at least one value".to_string(),
                    ));
                }
                caps_vec = Some((values, line_no));
            }
            other => {
                return Err(directive(line_no, format!("unknown directive `{other}`")));
            }
        }
        if let Some(extra) = parts.next() {
            return Err(directive(
                line_no,
                format!("unexpected token `{extra}` after `{keyword}`"),
            ));
        }
    }

    let inferred = widest.map_or(0, |(top, _)| top + 1);
    let n = match declared_nodes {
        // A declared count bounds every disk index, wherever it is given.
        Some(n) => {
            if let Some((top, line)) = widest.filter(|&(top, _)| top >= n) {
                return Err(directive(
                    line,
                    format!("edge endpoint {top} is out of range for `nodes {n}`"),
                ));
            }
            if let Some((values, line)) = caps_vec.as_ref().filter(|(vs, _)| vs.len() > n) {
                return Err(directive(
                    *line,
                    format!("caps lists {} values for `nodes {n}`", values.len()),
                ));
            }
            n
        }
        None => inferred.max(caps_vec.as_ref().map_or(0, |(vs, _)| vs.len())),
    };
    let mut g = Multigraph::with_nodes(n);
    for (u, v) in edges {
        g.try_add_edge(NodeId::new(u), NodeId::new(v))?;
    }
    let mut caps = match caps_vec {
        Some((mut values, _)) => {
            values.resize(n, default_cap);
            values
        }
        None => vec![default_cap; n],
    };
    for (v, c, line) in cap_overrides {
        if v >= n {
            return Err(directive(
                line,
                format!("cap directive for unknown disk {v}"),
            ));
        }
        caps[v] = c;
    }
    Ok(MigrationProblem::new(g, Capacities::from_vec(caps))?)
}

/// Serializes an instance back to the text format.
#[must_use]
pub fn to_instance_text(problem: &MigrationProblem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", problem.num_disks());
    let caps: Vec<String> = problem
        .capacities()
        .as_slice()
        .iter()
        .map(u32::to_string)
        .collect();
    let _ = writeln!(out, "caps {}", caps.join(" "));
    for (_, ep) in problem.graph().edges() {
        let _ = writeln!(out, "edge {} {}", ep.u.index(), ep.v.index());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_form() {
        let p = parse_instance("nodes 3\ncaps 2 4 2\nedge 0 1\nedge 1 2\n").unwrap();
        assert_eq!(p.num_disks(), 3);
        assert_eq!(p.capacities().as_slice(), &[2, 4, 2]);
        assert_eq!(p.num_items(), 2);
    }

    #[test]
    fn default_and_override_caps() {
        let p = parse_instance("default_cap 3\ncap 1 7\nedge 0 1\nedge 1 2\n").unwrap();
        assert_eq!(p.capacities().as_slice(), &[3, 7, 3]);
    }

    #[test]
    fn inline_comments_stripped() {
        let p = parse_instance("edge 0 1  # item A\n").unwrap();
        assert_eq!(p.num_items(), 1);
    }

    #[test]
    fn caps_extend_node_count() {
        let p = parse_instance("caps 1 1 1 1 1\nedge 0 1\n").unwrap();
        assert_eq!(p.num_disks(), 5);
    }

    #[test]
    fn roundtrip() {
        let text = "nodes 4\ncaps 2 1 3 1\nedge 0 1\nedge 0 1\nedge 2 3\n";
        let p = parse_instance(text).unwrap();
        let p2 = parse_instance(&to_instance_text(&p)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = parse_instance("disk 0\n").unwrap_err();
        assert!(matches!(err, InstanceError::Directive { line: 1, .. }));
    }

    #[test]
    fn rejects_zero_cap_on_busy_disk() {
        let err = parse_instance("caps 0 1\nedge 0 1\n").unwrap_err();
        assert!(matches!(
            err,
            InstanceError::Problem(ProblemError::ZeroCapacity { .. })
        ));
    }

    /// The line and message of a directive error.
    fn directive_error(text: &str) -> (usize, String) {
        match parse_instance(text) {
            Err(InstanceError::Directive { line, message }) => (line, message),
            other => panic!("{text:?}: expected a directive error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_tokens() {
        for (text, line, token) in [
            ("nodes 2\nedge 0 1 junk\n", 2, "junk"),
            ("nodes 2 3\n", 1, "3"),
            ("edge 0 1\ndefault_cap 2 x # note\n", 2, "x"),
            ("edge 0 1\n\ncap 1 4 4\n", 3, "4"),
        ] {
            let (l, message) = directive_error(text);
            assert_eq!(l, line, "{text:?}: {message}");
            assert!(
                message.contains(&format!("unexpected token `{token}`")),
                "{message}"
            );
        }
    }

    #[test]
    fn rejects_endpoints_beyond_declared_nodes() {
        // The offending edge's own line.
        let (line, message) = directive_error("nodes 2\nedge 0 1\nedge 0 5\n");
        assert_eq!(line, 3);
        assert!(
            message.contains("endpoint 5 is out of range for `nodes 2`"),
            "{message}"
        );
        assert_eq!(
            directive_error("nodes 2\nedge 2 0\n").0,
            2,
            "at, not only beyond"
        );
        // Declared last: the first line that reaches the widest endpoint.
        let text = "edge 0 1\nedge 4 0\nedge 0 4\nnodes 3\n";
        assert_eq!(directive_error(text).0, 2);
        // A caps vector may not outgrow the declared count either.
        assert_eq!(directive_error("nodes 2\n\ncaps 1 1 1\n").0, 3);
        assert_eq!(
            parse_instance("nodes 4\nedge 0 3\n").unwrap().num_disks(),
            4
        );
    }

    #[test]
    fn cap_for_unknown_disk_names_its_line() {
        let (line, message) = directive_error("nodes 2\nedge 0 1\n\ncap 5 1\n");
        assert_eq!(line, 4);
        assert!(message.contains("unknown disk 5"), "{message}");
    }

    #[test]
    fn rejects_bad_capacity_token() {
        let err = parse_instance("caps 1 x\n").unwrap_err();
        assert!(matches!(err, InstanceError::Directive { .. }));
    }
}
