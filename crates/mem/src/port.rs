//! The ideal cache-port model.

/// A per-cycle budget of ideal cache ports.
///
/// The paper assumes ideal ports: "an N-port cache can service N data
/// requests in any combination per cycle" (§4, footnote 8). A
/// `PortMeter` hands out at most `ports` claims per cycle; the budget
/// refreshes whenever the cycle advances.
///
/// ```
/// use dda_mem::PortMeter;
///
/// let mut ports = PortMeter::new(2);
/// assert!(ports.try_claim(0));
/// assert!(ports.try_claim(0));
/// assert!(!ports.try_claim(0)); // budget spent this cycle
/// assert!(ports.try_claim(1)); // refreshed next cycle
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortMeter {
    ports: u32,
    cycle: u64,
    used: u32,
}

impl PortMeter {
    /// Creates a meter with `ports` ports per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn new(ports: u32) -> PortMeter {
        assert!(ports > 0, "port count must be at least 1");
        PortMeter {
            ports,
            cycle: 0,
            used: 0,
        }
    }

    /// Total ports per cycle.
    pub fn ports(&self) -> u32 {
        self.ports
    }

    #[inline]
    fn roll(&mut self, cycle: u64) {
        if cycle != self.cycle {
            debug_assert!(cycle > self.cycle, "cycles must be non-decreasing");
            self.cycle = cycle;
            self.used = 0;
        }
    }

    /// Ports still available in `cycle`.
    pub fn available(&mut self, cycle: u64) -> u32 {
        self.roll(cycle);
        self.ports - self.used
    }

    /// Claims one port in `cycle`; returns whether a port was available.
    pub fn try_claim(&mut self, cycle: u64) -> bool {
        self.roll(cycle);
        if self.used < self.ports {
            self.used += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_per_cycle() {
        let mut p = PortMeter::new(2);
        assert_eq!(p.available(0), 2);
        assert!(p.try_claim(0));
        assert!(p.try_claim(0));
        assert!(!p.try_claim(0));
        assert_eq!(p.available(0), 0);
    }

    #[test]
    fn budget_refreshes_next_cycle() {
        let mut p = PortMeter::new(1);
        assert!(p.try_claim(0));
        assert!(!p.try_claim(0));
        assert!(p.try_claim(1));
        assert!(p.try_claim(5));
    }

    #[test]
    #[should_panic(expected = "port count")]
    fn zero_ports_panics() {
        let _ = PortMeter::new(0);
    }
}
