//! Floor-plan geometry of the instrumented auditorium.
//!
//! Coordinates are metres in a room-local frame: `x` runs along the
//! front wall (0 = left wall when facing the podium), `y` runs from
//! the front wall (podium, thermostats, projector screen) toward the
//! back. Positions are digitised from Figures 1–2 of the paper; they
//! are approximate, but the *topology* — which sensors sit near the
//! supply-air outlets at the front and which sit in the back rows —
//! matches the published clustering results (front group
//! {3,6,7,8,13,14,17,23,28,33,38}; back group the rest; thermostats 40
//! and 41 on the front side walls).

/// Identifier of a temperature sensing point, matching the numbering
/// of the paper's floor plan (1–39 wireless sensors, 40–41 HVAC
/// thermostats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorId(pub u8);

impl SensorId {
    /// `true` for the HVAC thermostats (IDs 40 and 41).
    pub fn is_thermostat(self) -> bool {
        self.0 >= 40
    }

    /// Conventional channel name for this sensor (`"t07"`, `"t40"`, …).
    pub fn channel_name(self) -> String {
        format!("t{:02}", self.0)
    }
}

impl std::fmt::Display for SensorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sensor {}", self.0)
    }
}

/// A sensing point: identifier plus floor-plan position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSite {
    /// Paper identifier.
    pub id: SensorId,
    /// Distance along the front wall, metres.
    pub x: f64,
    /// Distance from the front wall toward the back, metres.
    pub y: f64,
}

impl SensorSite {
    /// Euclidean distance to another site, metres.
    pub fn distance_to(&self, other: &SensorSite) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// The room envelope and instrumentation layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Room width along the front wall, metres.
    pub width: f64,
    /// Room depth front-to-back, metres.
    pub depth: f64,
    /// Ceiling height, metres.
    pub height: f64,
    /// `y` coordinate of the first supply-air outlet line (a linear
    /// diffuser spanning the room width).
    pub outlet_y_front: f64,
    /// `y` coordinate of the second supply-air outlet line.
    pub outlet_y_mid: f64,
    /// All sensing points, wireless sensors first, thermostats last.
    sites: Vec<SensorSite>,
}

impl Layout {
    /// The auditorium of the paper: a ~16 m × 12 m basement room with
    /// 25 usable wireless sensors, 2 thermostats and two supply-outlet
    /// lines near the front half.
    pub fn auditorium() -> Self {
        // Digitised (approximate) positions. Front cluster sensors sit
        // at y <= 5, back cluster at y >= 6.5. IDs match Fig. 2.
        let raw: &[(u8, f64, f64)] = &[
            // Front / HVAC-dominated group.
            (3, 4.0, 2.0),
            (6, 9.0, 4.5),
            (7, 7.5, 2.5),
            (8, 13.0, 4.8),
            (13, 2.5, 2.8),
            (14, 6.0, 3.2),
            (17, 5.0, 1.5),
            (23, 6.5, 1.8),
            (28, 10.5, 3.0),
            (33, 3.5, 4.2),
            (38, 11.5, 2.2),
            // Back / return-side group.
            (1, 2.0, 7.0),
            (12, 4.5, 8.0),
            (15, 13.5, 7.2),
            (16, 9.5, 7.8),
            (18, 14.5, 9.0),
            (19, 3.0, 9.5),
            (20, 8.0, 8.5),
            (26, 6.0, 10.5),
            (27, 10.0, 11.0),
            (30, 15.0, 10.2),
            (31, 1.5, 10.8),
            (32, 7.0, 9.8),
            (34, 5.5, 11.2),
            (37, 12.0, 9.6),
            // Thermostats on the front side walls.
            (40, 0.5, 1.5),
            (41, 15.5, 1.5),
        ];
        let sites = raw
            .iter()
            .map(|&(id, x, y)| SensorSite {
                id: SensorId(id),
                x,
                y,
            })
            .collect();
        Layout {
            width: 16.0,
            depth: 12.0,
            height: 4.0,
            outlet_y_front: 1.0,
            outlet_y_mid: 4.0,
            sites,
        }
    }

    /// Deterministically generates a parametric instrumentation
    /// layout: a `rows × cols` grid of wireless sensors over the
    /// seating area with seed-jittered positions, two supply-outlet
    /// lines in the front half, and the two thermostats on the front
    /// side walls — the same *topology* as the paper's auditorium at
    /// an arbitrary room scale. This is the geometry axis of the
    /// fleet's `BuildingSpec`: every distinct `(dimensions, grid,
    /// jitter_seed)` tuple mints a distinct building.
    ///
    /// The jitter stream is a pure splitmix64 chain over
    /// `jitter_seed`, so the layout is a bit-exact function of its
    /// arguments on every platform.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid argument: a
    /// non-positive dimension, an empty grid, or more than 36
    /// wireless sensors (IDs 37–39 are reserved, 40+ are
    /// thermostats).
    pub fn parametric(
        width: f64,
        depth: f64,
        height: f64,
        rows: usize,
        cols: usize,
        jitter_seed: u64,
    ) -> Result<Self, String> {
        if !(width > 0.0 && depth > 0.0 && height > 0.0) {
            return Err("room dimensions must be positive".to_owned());
        }
        if rows == 0 || cols == 0 {
            return Err("sensor grid needs at least one row and one column".to_owned());
        }
        if rows * cols > 36 {
            return Err("at most 36 wireless sensors (IDs 1..=36)".to_owned());
        }
        // Seating area: behind the podium strip, inset from the walls.
        let y0 = depth * 0.20;
        let y1 = depth * 0.92;
        let x0 = width * 0.08;
        let x1 = width * 0.92;
        let cell_x = (x1 - x0) / cols as f64;
        let cell_y = (y1 - y0) / rows as f64;
        let mut state = jitter_seed;
        let mut sites = Vec::with_capacity(rows * cols + 2);
        for r in 0..rows {
            for c in 0..cols {
                let raw = u8::try_from(r * cols + c + 1)
                    .map_err(|_| "sensor grid index exceeds the u8 ID space".to_owned())?;
                let id = SensorId(raw);
                // Centre of the grid cell, jittered by up to ±30 % of
                // the cell pitch, clamped inside the room envelope.
                let jx = (Self::next_unit(&mut state) - 0.5) * 0.6 * cell_x;
                let jy = (Self::next_unit(&mut state) - 0.5) * 0.6 * cell_y;
                let x = (x0 + (c as f64 + 0.5) * cell_x + jx).clamp(0.1, width - 0.1);
                let y = (y0 + (r as f64 + 0.5) * cell_y + jy).clamp(0.1, depth - 0.1);
                sites.push(SensorSite { id, x, y });
            }
        }
        let stat_y = (depth * 0.125).clamp(0.1, depth - 0.1);
        sites.push(SensorSite {
            id: SensorId(40),
            x: (width * 0.03).clamp(0.1, width - 0.1),
            y: stat_y,
        });
        sites.push(SensorSite {
            id: SensorId(41),
            x: (width * 0.97).clamp(0.1, width - 0.1),
            y: stat_y,
        });
        let layout = Layout {
            width,
            depth,
            height,
            outlet_y_front: depth / 12.0,
            outlet_y_mid: depth / 3.0,
            sites,
        };
        layout.validate()?;
        Ok(layout)
    }

    /// One splitmix64 step mapped to a uniform draw in `[0, 1)`.
    fn next_unit(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = *state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// All sensing points.
    pub fn sites(&self) -> &[SensorSite] {
        &self.sites
    }

    /// Number of sensing points (wireless + thermostats).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Looks up a site by paper ID.
    pub fn site(&self, id: SensorId) -> Option<&SensorSite> {
        self.sites.iter().find(|s| s.id == id)
    }

    /// Index of a site within [`Layout::sites`].
    pub fn site_index(&self, id: SensorId) -> Option<usize> {
        self.sites.iter().position(|s| s.id == id)
    }

    /// Wireless (non-thermostat) sites.
    pub fn wireless_sites(&self) -> impl Iterator<Item = &SensorSite> + '_ {
        self.sites.iter().filter(|s| !s.id.is_thermostat())
    }

    /// Thermostat sites.
    pub fn thermostat_sites(&self) -> impl Iterator<Item = &SensorSite> + '_ {
        self.sites.iter().filter(|s| s.id.is_thermostat())
    }

    /// Distance from a site to the nearest supply-outlet line
    /// (outlets span the full room width, so only `y` matters).
    pub fn outlet_distance(&self, site: &SensorSite) -> f64 {
        (site.y - self.outlet_y_front)
            .abs()
            .min((site.y - self.outlet_y_mid).abs())
    }

    /// Floor area, m².
    pub fn floor_area(&self) -> f64 {
        self.width * self.depth
    }

    /// Air volume, m³.
    pub fn air_volume(&self) -> f64 {
        self.floor_area() * self.height
    }

    /// Normalised seating-density weight of a site: how much of the
    /// occupant heat load lands near it. Seats occupy the region
    /// behind the podium (`y ≥ 2`), with density increasing slightly
    /// toward the middle rows.
    pub fn seating_weight(&self, site: &SensorSite) -> f64 {
        if site.y < 2.0 {
            0.2 // podium / aisle area still sees some load
        } else {
            1.0
        }
    }

    /// Validates basic invariants (positive dimensions, sites inside
    /// the room, unique IDs).
    pub fn validate(&self) -> Result<(), String> {
        if self.width <= 0.0 || self.depth <= 0.0 || self.height <= 0.0 {
            return Err("room dimensions must be positive".to_owned());
        }
        if self.sites.is_empty() {
            return Err("layout has no sensing points".to_owned());
        }
        for s in &self.sites {
            if s.x < 0.0 || s.x > self.width || s.y < 0.0 || s.y > self.depth {
                return Err(format!("{} lies outside the room", s.id));
            }
        }
        let mut ids: Vec<u8> = self.sites.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.sites.len() {
            return Err("duplicate sensor ids".to_owned());
        }
        Ok(())
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::auditorium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auditorium_layout_is_valid() {
        let l = Layout::auditorium();
        assert!(l.validate().is_ok());
        assert_eq!(l.site_count(), 27);
        assert_eq!(l.wireless_sites().count(), 25);
        assert_eq!(l.thermostat_sites().count(), 2);
    }

    #[test]
    fn sensor_id_helpers() {
        assert!(SensorId(40).is_thermostat());
        assert!(SensorId(41).is_thermostat());
        assert!(!SensorId(27).is_thermostat());
        assert_eq!(SensorId(7).channel_name(), "t07");
        assert_eq!(SensorId(40).channel_name(), "t40");
        assert_eq!(SensorId(3).to_string(), "sensor 3");
    }

    #[test]
    fn lookup_by_id() {
        let l = Layout::auditorium();
        let s27 = l.site(SensorId(27)).unwrap();
        assert!(s27.y > 10.0, "sensor 27 is at the warm back of the room");
        assert!(l.site(SensorId(99)).is_none());
        assert_eq!(l.site_index(SensorId(3)), Some(0));
    }

    #[test]
    fn front_cluster_sensors_are_near_outlets() {
        let l = Layout::auditorium();
        let front = [3, 6, 7, 8, 13, 14, 17, 23, 28, 33, 38];
        let back = [1, 12, 15, 16, 18, 19, 20, 26, 27, 30, 31, 32, 34, 37];
        for id in front {
            let s = l.site(SensorId(id)).unwrap();
            assert!(
                l.outlet_distance(s) < 2.0,
                "front sensor {id} should be within 2 m of an outlet line"
            );
        }
        for id in back {
            let s = l.site(SensorId(id)).unwrap();
            assert!(
                l.outlet_distance(s) > 2.5,
                "back sensor {id} should be more than 2.5 m from outlets"
            );
        }
    }

    #[test]
    fn distances_are_symmetric() {
        let l = Layout::auditorium();
        let a = l.site(SensorId(3)).unwrap();
        let b = l.site(SensorId(27)).unwrap();
        assert_eq!(a.distance_to(b), b.distance_to(a));
        assert!(a.distance_to(b) > 5.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn geometry_quantities() {
        let l = Layout::auditorium();
        assert_eq!(l.floor_area(), 16.0 * 12.0);
        assert_eq!(l.air_volume(), 16.0 * 12.0 * 4.0);
        let podium = SensorSite {
            id: SensorId(99),
            x: 1.0,
            y: 1.0,
        };
        assert!(l.seating_weight(&podium) < 1.0);
        let seat = SensorSite {
            id: SensorId(98),
            x: 8.0,
            y: 8.0,
        };
        assert_eq!(l.seating_weight(&seat), 1.0);
    }

    #[test]
    fn parametric_layout_is_valid_and_deterministic() {
        let a = Layout::parametric(20.0, 15.0, 4.5, 3, 5, 77).unwrap();
        let b = Layout::parametric(20.0, 15.0, 4.5, 3, 5, 77).unwrap();
        assert_eq!(a, b, "same arguments must mint the same layout");
        assert!(a.validate().is_ok());
        assert_eq!(a.wireless_sites().count(), 15);
        assert_eq!(a.thermostat_sites().count(), 2);
        let c = Layout::parametric(20.0, 15.0, 4.5, 3, 5, 78).unwrap();
        assert_ne!(a, c, "a different jitter seed must move sensors");
        assert_eq!(
            a.sites().iter().map(|s| s.id).collect::<Vec<_>>(),
            c.sites().iter().map(|s| s.id).collect::<Vec<_>>(),
            "jitter must not change the ID roster"
        );
    }

    #[test]
    fn parametric_layout_rejects_bad_arguments() {
        assert!(Layout::parametric(0.0, 15.0, 4.5, 3, 5, 0).is_err());
        assert!(Layout::parametric(20.0, 15.0, 4.5, 0, 5, 0).is_err());
        assert!(Layout::parametric(20.0, 15.0, 4.5, 6, 7, 0).is_err());
        // Largest admissible grid still validates.
        let max = Layout::parametric(30.0, 24.0, 5.0, 6, 6, 9).unwrap();
        assert_eq!(max.wireless_sites().count(), 36);
    }

    #[test]
    fn parametric_outlets_sit_in_the_front_half() {
        let l = Layout::parametric(18.0, 14.0, 4.0, 4, 4, 3).unwrap();
        assert!(l.outlet_y_front < l.depth / 2.0);
        assert!(l.outlet_y_mid < l.depth / 2.0);
        assert!(l.outlet_y_front < l.outlet_y_mid);
    }

    #[test]
    fn validation_catches_problems() {
        let mut l = Layout::auditorium();
        l.width = -1.0;
        assert!(l.validate().is_err());
        let mut l2 = Layout::auditorium();
        l2.sites.push(SensorSite {
            id: SensorId(3),
            x: 1.0,
            y: 1.0,
        });
        assert!(l2.validate().is_err());
        let mut l3 = Layout::auditorium();
        l3.sites[0].x = 100.0;
        assert!(l3.validate().is_err());
    }
}
