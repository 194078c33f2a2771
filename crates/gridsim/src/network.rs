//! RENATER network model.
//!
//! Sites are connected through the RENATER research backbone at 1 or
//! 10 Gb/s; intra-cluster traffic rides gigabit Ethernet. Transfers follow
//! the classic latency + bandwidth model `T(S) = L + S / B`, which is also
//! what DIET's performance forecaster assumed. Routes concatenate links
//! (latencies add, bandwidth is the bottleneck link).

/// A network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way latency, seconds.
    pub latency: f64,
    /// Bandwidth, bytes per second.
    pub bandwidth: f64,
}

impl Link {
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        assert!(latency >= 0.0 && bandwidth > 0.0);
        Link { latency, bandwidth }
    }

    /// 1 Gb/s Ethernet with LAN latency.
    pub fn lan() -> Self {
        Link::new(100e-6, 125e6)
    }

    /// RENATER 1 Gb/s WAN hop.
    pub fn renater_1g(latency: f64) -> Self {
        Link::new(latency, 125e6)
    }

    /// RENATER 10 Gb/s WAN hop.
    pub fn renater_10g(latency: f64) -> Self {
        Link::new(latency, 1.25e9)
    }

    /// Transfer time of `size` bytes.
    pub fn transfer_time(&self, size: u64) -> f64 {
        self.latency + size as f64 / self.bandwidth
    }
}

/// A route: an ordered sequence of links.
#[derive(Debug, Clone, Default)]
pub struct Route {
    pub links: Vec<Link>,
}

impl Route {
    pub fn new(links: Vec<Link>) -> Self {
        Route { links }
    }

    /// End-to-end latency: sum of per-link latencies.
    pub fn latency(&self) -> f64 {
        self.links.iter().map(|l| l.latency).sum()
    }

    /// Bottleneck bandwidth: the minimum along the path.
    pub fn bandwidth(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// Store-and-forward approximation of the transfer time for `size` bytes:
    /// path latency plus serialisation on the bottleneck.
    pub fn transfer_time(&self, size: u64) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        self.latency() + size as f64 / self.bandwidth()
    }
}

/// All-pairs site topology with a star RENATER core (each site connects to
/// the Paris core with one WAN hop), plus a LAN hop inside each site.
#[derive(Debug, Clone)]
pub struct Topology {
    site_names: Vec<String>,
    /// Site uplinks to the core, indexed like `site_names`.
    uplinks: Vec<Link>,
    lan: Link,
}

impl Topology {
    /// RENATER circa 2006: Lyon and Sophia on 10 Gb/s, others on 1 Gb/s;
    /// one-way core latencies approximate geographic RTTs.
    pub fn renater_2006(site_names: &[String]) -> Self {
        let uplinks = site_names
            .iter()
            .map(|name| match name.as_str() {
                "Lyon" => Link::renater_10g(2.0e-3),
                "Sophia" => Link::renater_10g(4.0e-3),
                "Lille" => Link::renater_1g(2.5e-3),
                "Nancy" => Link::renater_1g(3.0e-3),
                "Toulouse" => Link::renater_1g(4.0e-3),
                _ => Link::renater_1g(3.0e-3),
            })
            .collect();
        Topology {
            site_names: site_names.to_vec(),
            uplinks,
            lan: Link::lan(),
        }
    }

    fn site_index(&self, name: &str) -> Option<usize> {
        self.site_names.iter().position(|s| s == name)
    }

    /// Route between two sites (LAN + up + down + LAN), or pure LAN when the
    /// endpoints share a site.
    pub fn route(&self, from: &str, to: &str) -> Route {
        if from == to {
            return Route::new(vec![self.lan]);
        }
        let fi = self.site_index(from).expect("unknown source site");
        let ti = self.site_index(to).expect("unknown destination site");
        Route::new(vec![self.lan, self.uplinks[fi], self.uplinks[ti], self.lan])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        ["Lyon", "Lille", "Nancy", "Toulouse", "Sophia"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn link_transfer_time_model() {
        let l = Link::new(0.001, 1000.0);
        assert!((l.transfer_time(500) - 0.501).abs() < 1e-12);
        assert!((l.transfer_time(0) - 0.001).abs() < 1e-15);
    }

    #[test]
    fn route_latency_adds_and_bandwidth_bottlenecks() {
        let r = Route::new(vec![Link::new(0.001, 100.0), Link::new(0.002, 10.0)]);
        assert!((r.latency() - 0.003).abs() < 1e-12);
        assert_eq!(r.bandwidth(), 10.0);
        assert!((r.transfer_time(100) - (0.003 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn same_site_is_lan_only() {
        let t = Topology::renater_2006(&names());
        let r = t.route("Lyon", "Lyon");
        assert_eq!(r.links.len(), 1);
        assert!(r.latency() < 1e-3);
    }

    #[test]
    fn cross_site_goes_through_core() {
        let t = Topology::renater_2006(&names());
        let r = t.route("Lille", "Toulouse");
        assert_eq!(r.links.len(), 4);
        // 2.5 ms + 4 ms + 2 LAN hops.
        assert!(r.latency() > 6e-3 && r.latency() < 8e-3);
        // Bottleneck is 1 Gb/s even between 10G sites and 1G sites.
        let r2 = t.route("Lyon", "Nancy");
        assert_eq!(r2.bandwidth(), 125e6);
    }

    #[test]
    fn ten_gig_between_fast_sites() {
        let t = Topology::renater_2006(&names());
        let r = t.route("Lyon", "Sophia");
        // Bottleneck is the LAN hop (1 Gb/s), modelling cluster NICs.
        assert_eq!(r.bandwidth(), 125e6);
        // But WAN hops themselves are 10G.
        assert!(r.links[1].bandwidth > 1e9 && r.links[2].bandwidth > 1e9);
    }

    #[test]
    fn route_is_symmetric_in_time() {
        let t = Topology::renater_2006(&names());
        let a = t.route("Nancy", "Sophia").transfer_time(1 << 20);
        let b = t.route("Sophia", "Nancy").transfer_time(1 << 20);
        assert!((a - b).abs() < 1e-12);
    }
}
