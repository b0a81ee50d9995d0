//! Scenario configuration — the programmatic counterpart of KSpot's Configuration Panel.
//!
//! The Configuration Panel "enables the user to load a new scenario from a configuration
//! file or to create a new scenario that can be stored in a configuration file", where a
//! scenario says which sensors exist, where they sit on the floor plan and which
//! physical region (cluster) each belongs to.  [`ScenarioConfig`] captures exactly that,
//! offers the two named scenarios used in the paper, and supports a small line-based
//! configuration-file format so scenarios can be stored and re-loaded without pulling in
//! a serialisation framework.

use kspot_net::topology::{NodeSpec, Position};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, GroupId, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// A named deployment scenario: the deployment plus human-readable cluster names and the
/// value domain of the monitored modality.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario name shown in the GUI title bar.
    pub name: String,
    /// The sensed modality ("sound", "temperature", …).
    pub modality: String,
    /// The value domain of the modality.
    pub domain: ValueDomain,
    /// The physical deployment (positions, clusters, radio range).
    pub deployment: Deployment,
    /// Human-readable cluster names, keyed by group id.
    pub cluster_names: BTreeMap<GroupId, String>,
}

impl ScenarioConfig {
    /// The Figure-1 running example: a 4-room building monitored by 9 sensors.
    pub fn figure1() -> Self {
        let deployment = Deployment::figure1();
        let cluster_names = [(0, "Room A"), (1, "Room B"), (2, "Room C"), (3, "Room D")]
            .into_iter()
            .map(|(g, n)| (g as GroupId, n.to_string()))
            .collect();
        Self {
            name: "figure-1 building".to_string(),
            modality: "sound".to_string(),
            domain: ValueDomain::percentage(),
            deployment,
            cluster_names,
        }
    }

    /// The Figure-3 conference demo: 14 nodes in 6 clusters spread over the venue.
    pub fn conference() -> Self {
        let deployment = Deployment::conference();
        let cluster_names = [
            (0, "Auditorium"),
            (1, "Conference Room 1"),
            (2, "Conference Room 2"),
            (3, "Coffee Station East"),
            (4, "Coffee Station West"),
            (5, "Registration Desk"),
        ]
        .into_iter()
        .map(|(g, n)| (g as GroupId, n.to_string()))
        .collect();
        Self {
            name: "ICDE conference venue".to_string(),
            modality: "sound".to_string(),
            domain: ValueDomain::percentage(),
            deployment,
            cluster_names,
        }
    }

    /// A custom scenario around an arbitrary deployment; clusters get generated names.
    pub fn custom(name: impl Into<String>, modality: impl Into<String>, deployment: Deployment) -> Self {
        let cluster_names = deployment.groups().iter().map(|&(g, _)| (g, format!("Cluster {g}"))).collect();
        Self {
            name: name.into(),
            modality: modality.into(),
            domain: ValueDomain::percentage(),
            deployment,
            cluster_names,
        }
    }

    /// The display name of a cluster.
    pub fn cluster_name(&self, group: GroupId) -> String {
        self.cluster_names
            .get(&group)
            .cloned()
            .unwrap_or_else(|| format!("Cluster {group}"))
    }

    /// Number of clusters in the scenario.
    pub fn num_clusters(&self) -> usize {
        self.deployment.num_groups()
    }

    /// Serialises the scenario into the line-based configuration-file format:
    ///
    /// ```text
    /// scenario <name>
    /// modality <name> <min> <max>
    /// range <radio range>
    /// sink <x> <y>
    /// cluster <group id> <name>
    /// node <id> <x> <y> <group id>
    /// ```
    pub fn to_config_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario {}\n", self.name));
        out.push_str(&format!(
            "modality {} {} {}\n",
            self.modality, self.domain.min, self.domain.max
        ));
        out.push_str(&format!("range {}\n", self.deployment.radio_range()));
        let sink = self.deployment.sink_position();
        out.push_str(&format!("sink {} {}\n", sink.x, sink.y));
        for (g, name) in &self.cluster_names {
            out.push_str(&format!("cluster {g} {name}\n"));
        }
        for node in self.deployment.nodes() {
            out.push_str(&format!(
                "node {} {} {} {}\n",
                node.id, node.position.x, node.position.y, node.group
            ));
        }
        out
    }

    /// Parses a scenario from the configuration-file format produced by
    /// [`Self::to_config_string`].
    pub fn from_config_string(text: &str) -> Result<Self, ConfigError> {
        let mut name = String::new();
        let mut modality = String::from("sound");
        let mut domain = ValueDomain::percentage();
        let mut range = 0.0f64;
        let mut sink = Position::new(0.0, 0.0);
        let mut cluster_names = BTreeMap::new();
        let mut nodes: Vec<(NodeSpec, usize)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().unwrap_or_default();
            let rest: Vec<&str> = parts.collect();
            let err = |msg: &str| ConfigError { line: lineno + 1, message: msg.to_string() };
            let parse_f64 = |s: &str, what: &str| {
                s.parse::<f64>().map_err(|_| ConfigError {
                    line: lineno + 1,
                    message: format!("{what} `{s}` is not a number"),
                })
            };
            match keyword {
                "scenario" => name = rest.join(" "),
                "modality" => {
                    if rest.len() != 3 {
                        return Err(err("modality expects `<name> <min> <max>`"));
                    }
                    modality = rest[0].to_string();
                    let (min, max) = (parse_f64(rest[1], "domain min")?, parse_f64(rest[2], "domain max")?);
                    if !min.is_finite() || !max.is_finite() {
                        return Err(err("domain bounds must be finite"));
                    }
                    if min > max {
                        return Err(err("domain min must not exceed max"));
                    }
                    domain = ValueDomain::new(min, max);
                }
                "range" => {
                    if rest.len() != 1 {
                        return Err(err("range expects a single number"));
                    }
                    range = parse_f64(rest[0], "radio range")?;
                    if !range.is_finite() || range <= 0.0 {
                        return Err(err("radio range must be a positive finite number"));
                    }
                }
                "sink" => {
                    if rest.len() != 2 {
                        return Err(err("sink expects `<x> <y>`"));
                    }
                    sink = Position::new(parse_f64(rest[0], "sink x")?, parse_f64(rest[1], "sink y")?);
                }
                "cluster" => {
                    if rest.len() < 2 {
                        return Err(err("cluster expects `<group id> <name>`"));
                    }
                    let g: GroupId = rest[0]
                        .parse()
                        .map_err(|_| err("cluster group id must be an integer"))?;
                    cluster_names.insert(g, rest[1..].join(" "));
                }
                "node" => {
                    if rest.len() != 4 {
                        return Err(err("node expects `<id> <x> <y> <group id>`"));
                    }
                    let id: NodeId = rest[0].parse().map_err(|_| err("node id must be an integer"))?;
                    let group: GroupId = rest[3].parse().map_err(|_| err("group id must be an integer"))?;
                    let position = Position::new(parse_f64(rest[1], "node x")?, parse_f64(rest[2], "node y")?);
                    nodes.push((NodeSpec { id, position, group }, lineno + 1));
                }
                other => return Err(err(&format!("unknown keyword `{other}`"))),
            }
        }

        if nodes.is_empty() {
            return Err(ConfigError { line: 0, message: "the scenario defines no nodes".to_string() });
        }
        if range <= 0.0 {
            return Err(ConfigError { line: 0, message: "the scenario defines no positive radio range".to_string() });
        }
        // Stable, so of two nodes with one id the later line is the one reported.
        nodes.sort_by_key(|(n, _)| n.id);
        let misplaced = nodes.iter().enumerate().find(|(i, (n, _))| n.id != (i + 1) as NodeId);
        if let Some((i, (node, line))) = misplaced {
            return Err(ConfigError {
                line: *line,
                message: format!("node id {} where {} is due: ids must be the consecutive range 1..=n", node.id, i + 1),
            });
        }
        let nodes = nodes.into_iter().map(|(n, _)| n).collect();
        let deployment = Deployment::from_parts(sink, nodes, range);
        let mut config = ScenarioConfig::custom(name, modality, deployment);
        config.domain = domain;
        for (g, n) in cluster_names {
            config.cluster_names.insert(g, n);
        }
        Ok(config)
    }
}

/// An error encountered while parsing a scenario configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number (0 when the problem is about the file as a whole).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "invalid scenario configuration: {}", self.message)
        } else {
            write!(f, "invalid scenario configuration at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_scenarios_match_the_paper() {
        let fig1 = ScenarioConfig::figure1();
        assert_eq!(fig1.deployment.num_nodes(), 9);
        assert_eq!(fig1.num_clusters(), 4);
        assert_eq!(fig1.cluster_name(2), "Room C");

        let conf = ScenarioConfig::conference();
        assert_eq!(conf.deployment.num_nodes(), 14);
        assert_eq!(conf.num_clusters(), 6);
        assert_eq!(conf.cluster_name(0), "Auditorium");
        assert_eq!(conf.cluster_name(99), "Cluster 99");
    }

    #[test]
    fn config_round_trips_through_the_file_format() {
        let original = ScenarioConfig::conference();
        let text = original.to_config_string();
        let parsed = ScenarioConfig::from_config_string(&text).expect("round trip parses");
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.modality, original.modality);
        assert_eq!(parsed.deployment.num_nodes(), original.deployment.num_nodes());
        assert_eq!(parsed.num_clusters(), original.num_clusters());
        assert_eq!(parsed.cluster_name(3), original.cluster_name(3));
        for id in original.deployment.node_ids() {
            assert_eq!(parsed.deployment.group_of(id), original.deployment.group_of(id));
            let a = parsed.deployment.position_of(id);
            let b = original.deployment.position_of(id);
            assert!((a.x - b.x).abs() < 1e-12 && (a.y - b.y).abs() < 1e-12);
        }
    }

    #[test]
    fn config_format_tolerates_comments_and_blank_lines() {
        let text = "# my scenario\n\nscenario demo\nmodality sound 0 100\nrange 30\nsink 0 0\ncluster 0 Lab\nnode 1 5 5 0\nnode 2 6 6 0\n";
        let config = ScenarioConfig::from_config_string(text).expect("parses");
        assert_eq!(config.name, "demo");
        assert_eq!(config.deployment.num_nodes(), 2);
        assert_eq!(config.cluster_name(0), "Lab");
    }

    #[test]
    fn config_errors_carry_line_numbers() {
        let err = ScenarioConfig::from_config_string("scenario x\nbananas 1 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bananas"));

        let err = ScenarioConfig::from_config_string("node 1 a b 0\nrange 10\n").unwrap_err();
        assert!(err.message.contains("not a number"));

        let err = ScenarioConfig::from_config_string("scenario empty\nrange 10\n").unwrap_err();
        assert!(err.message.contains("no nodes"));

        let err = ScenarioConfig::from_config_string("node 1 1 1 0\n").unwrap_err();
        assert!(err.message.contains("radio range"));

        // Values the deployment and the domain would refuse by panicking are errors on
        // their own line.
        for (text, line, what) in [
            ("modality sound 40 -10\nrange 10\nnode 1 1 1 0\n", 1, "min must not exceed max"),
            ("modality sound NaN 5\nrange 10\nnode 1 1 1 0\n", 1, "finite"),
            ("range 10\nnode 2 1 1 0\n", 2, "consecutive"),
            ("range 10\nnode 1 1 1 0\nnode 1 2 2 0\n", 3, "consecutive"),
            ("range 10\nnode 0 1 1 0\n", 2, "consecutive"),
            ("range NaN\nnode 1 1 1 0\n", 1, "radio range"),
        ] {
            let err = ScenarioConfig::from_config_string(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(what), "{text:?}: {err}");
        }
    }

    #[test]
    fn custom_scenarios_get_generated_cluster_names() {
        let config = ScenarioConfig::custom("grid", "light", Deployment::grid(3, 10.0, Some(3)));
        assert_eq!(config.cluster_name(1), "Cluster 1");
        assert_eq!(config.num_clusters(), 3);
    }
}
