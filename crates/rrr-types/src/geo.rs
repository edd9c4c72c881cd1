//! Geography: cities and great-circle distance, used by the router-level
//! border technique (§4.2.2) and the geolocation pipeline (Appendix A).

use std::fmt;

/// Identifier of a city in the topology's city table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CityId(pub u16);

impl fmt::Display for CityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "city{}", self.0)
    }
}

/// A point on the globe, degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    pub lat_deg: f64,
    pub lon_deg: f64,
}

impl GeoPoint {
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        GeoPoint { lat_deg, lon_deg }
    }

    /// Great-circle (haversine) distance in kilometres.
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        const R_EARTH_KM: f64 = 6371.0;
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * R_EARTH_KM * a.sqrt().asin()
    }

    /// Round-trip time lower bound in milliseconds over fiber (speed of
    /// light in fiber ≈ 2/3 c ≈ 200 km/ms one-way ⇒ 100 km/ms round trip).
    /// A 1 ms RTT therefore bounds distance to ≤100 km (Appendix A).
    pub fn min_rtt_ms(self, other: GeoPoint) -> f64 {
        self.distance_km(other) / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONDON: GeoPoint = GeoPoint { lat_deg: 51.5074, lon_deg: -0.1278 };
    const FRANKFURT: GeoPoint = GeoPoint { lat_deg: 50.1109, lon_deg: 8.6821 };
    const NYC: GeoPoint = GeoPoint { lat_deg: 40.7128, lon_deg: -74.0060 };

    #[test]
    fn haversine_known_distances() {
        // London–Frankfurt ≈ 640 km
        let d = LONDON.distance_km(FRANKFURT);
        assert!((600.0..700.0).contains(&d), "got {d}");
        // London–NYC ≈ 5570 km
        let d = LONDON.distance_km(NYC);
        assert!((5400.0..5700.0).contains(&d), "got {d}");
        // symmetric, zero to self
        assert!((LONDON.distance_km(NYC) - NYC.distance_km(LONDON)).abs() < 1e-9);
        assert!(LONDON.distance_km(LONDON) < 1e-9);
    }

    #[test]
    fn rtt_bound() {
        // 100 km => 1 ms RTT floor
        let d = LONDON.distance_km(FRANKFURT);
        assert!((LONDON.min_rtt_ms(FRANKFURT) - d / 100.0).abs() < 1e-12);
    }
}
