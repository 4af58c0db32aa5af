//! Closed multi-class queueing network definitions.

/// Service discipline of a station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationKind {
    /// Queueing station (FCFS/PS — identical under product form with
    /// exponential assumptions).
    Queueing,
    /// Delay (infinite-server) station: no queueing, pure service.
    Delay,
}

/// One service center.
#[derive(Debug, Clone)]
pub struct Station {
    /// Human-readable name (e.g. "cpu", "disk", "network").
    pub name: String,
    /// Discipline.
    pub kind: StationKind,
    /// Number of identical servers (only meaningful for `Queueing`;
    /// `> 1` requires the Seidmann expansion before MVA).
    pub servers: u32,
}

impl Station {
    /// Single-server queueing station.
    pub fn queueing(name: &str) -> Station {
        Station {
            name: name.to_string(),
            kind: StationKind::Queueing,
            servers: 1,
        }
    }

    /// Multi-server queueing station.
    pub fn multi(name: &str, servers: u32) -> Station {
        assert!(servers >= 1);
        Station {
            name: name.to_string(),
            kind: StationKind::Queueing,
            servers,
        }
    }

    /// Infinite-server (delay) station.
    pub fn delay(name: &str) -> Station {
        Station {
            name: name.to_string(),
            kind: StationKind::Delay,
            servers: 1,
        }
    }
}

/// A closed network: `C` task classes circulating among `K` stations.
///
/// `demands[c][k]` is the *service demand* of one class-`c` customer at
/// station `k` per visit cycle (seconds) — visit ratio × service time.
#[derive(Debug, Clone)]
pub struct ClosedNetwork {
    /// Stations, `K` of them.
    pub stations: Vec<Station>,
    /// Class names, `C` of them.
    pub classes: Vec<String>,
    /// Demand matrix, `C × K`.
    pub demands: Vec<Vec<f64>>,
}

impl ClosedNetwork {
    /// Build and validate.
    pub fn new(stations: Vec<Station>, classes: Vec<String>, demands: Vec<Vec<f64>>) -> Self {
        let net = ClosedNetwork {
            stations,
            classes,
            demands,
        };
        net.validate();
        net
    }

    /// Number of stations.
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Panic with a description if the definition is inconsistent.
    pub fn validate(&self) {
        assert!(!self.stations.is_empty(), "network needs stations");
        assert!(!self.classes.is_empty(), "network needs classes");
        assert_eq!(
            self.demands.len(),
            self.classes.len(),
            "one demand row per class"
        );
        for (c, row) in self.demands.iter().enumerate() {
            assert_eq!(
                row.len(),
                self.stations.len(),
                "class {c}: one demand per station"
            );
            assert!(
                row.iter().all(|d| d.is_finite() && *d >= 0.0),
                "class {c}: demands must be finite and non-negative"
            );
        }
    }

    /// Replace every `m`-server queueing station with the Seidmann
    /// approximation: a single-server queueing station with demand `D/m`
    /// in series with a delay station of demand `D·(m−1)/m`. Exact for
    /// `m = 1`; a standard, well-behaved approximation otherwise.
    pub fn expand_multiserver(&self) -> ClosedNetwork {
        let mut stations = Vec::new();
        let mut col_map: Vec<(usize, Option<usize>)> = Vec::new(); // old → (queue col, delay col)
        for s in &self.stations {
            if s.kind == StationKind::Queueing && s.servers > 1 {
                let q = stations.len();
                stations.push(Station::queueing(&format!("{}/q", s.name)));
                let d = stations.len();
                stations.push(Station::delay(&format!("{}/d", s.name)));
                col_map.push((q, Some(d)));
            } else {
                let q = stations.len();
                stations.push(s.clone());
                col_map.push((q, None));
            }
        }
        let mut demands = vec![vec![0.0; stations.len()]; self.classes.len()];
        for (c, row) in self.demands.iter().enumerate() {
            for (k, &d) in row.iter().enumerate() {
                let m = self.stations[k].servers.max(1) as f64;
                match col_map[k] {
                    (q, Some(del)) => {
                        demands[c][q] = d / m;
                        demands[c][del] = d * (m - 1.0) / m;
                    }
                    (q, None) => demands[c][q] = d,
                }
            }
        }
        ClosedNetwork::new(stations, self.classes.clone(), demands)
    }
}

/// Performance metrics produced by an MVA solver.
#[derive(Debug, Clone)]
pub struct MvaSolution {
    /// Residence time per class per station (queueing + service), `C × K`.
    pub residence: Vec<Vec<f64>>,
    /// Total response time per class (sum over stations).
    pub response: Vec<f64>,
    /// Throughput per class.
    pub throughput: Vec<f64>,
    /// Mean queue length per class per station.
    pub queue: Vec<Vec<f64>>,
    /// Utilization per station (sum over classes of X·D).
    pub utilization: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("cpu"), Station::delay("think")],
            vec!["a".into()],
            vec![vec![0.5, 2.0]],
        );
        assert_eq!(net.num_stations(), 2);
        assert_eq!(net.num_classes(), 1);
    }

    #[test]
    #[should_panic(expected = "one demand per station")]
    fn mismatched_demands_rejected() {
        ClosedNetwork::new(
            vec![Station::queueing("cpu")],
            vec!["a".into()],
            vec![vec![0.5, 1.0]],
        );
    }

    #[test]
    fn seidmann_expansion() {
        let net = ClosedNetwork::new(
            vec![Station::multi("cpu", 4), Station::queueing("disk")],
            vec!["a".into()],
            vec![vec![2.0, 1.0]],
        );
        let ex = net.expand_multiserver();
        assert_eq!(ex.num_stations(), 3);
        // cpu/q: 2/4, cpu/d: 2·3/4, disk: 1.
        assert!((ex.demands[0][0] - 0.5).abs() < 1e-12);
        assert!((ex.demands[0][1] - 1.5).abs() < 1e-12);
        assert!((ex.demands[0][2] - 1.0).abs() < 1e-12);
        assert_eq!(ex.stations[1].kind, StationKind::Delay);
        // Total demand preserved.
        let before: f64 = net.demands[0].iter().sum();
        let after: f64 = ex.demands[0].iter().sum();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn single_server_expansion_is_identity() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("cpu")],
            vec!["a".into()],
            vec![vec![1.0]],
        );
        let ex = net.expand_multiserver();
        assert_eq!(ex.num_stations(), 1);
        assert_eq!(ex.demands, net.demands);
    }
}
