//! The protocol's domain types declare the workspace's `serde` markers,
//! so schema participation stays visible in the type system while the
//! vendored shim exists.

use geomap_core::{pipeline, Mapping};

/// The vendored serde exposes `Serialize`/`Deserialize` as marker
/// traits; the protocol's domain types must declare them so schema
/// participation is visible in the type system.
fn declares_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}

#[test]
fn domain_types_declare_serde() {
    declares_serde::<Mapping>();
    declares_serde::<pipeline::PipelineResult>();
    declares_serde::<geonet::Site>();
    declares_serde::<geonet::SiteId>();
    declares_serde::<geonet::GeoCoord>();
    declares_serde::<geonet::SquareMatrix>();
    declares_serde::<geonet::SiteNetwork>();
    declares_serde::<geonet::CalibrationReport>();
    declares_serde::<geomap_service::MapRequest>();
    declares_serde::<geomap_service::Request>();
    declares_serde::<geomap_service::Response>();
}
