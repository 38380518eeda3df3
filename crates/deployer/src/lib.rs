//! The Design Deployer (paper §2.4): turns unified, validated design
//! solutions into executables for concrete platforms.
//!
//! "By using platform-independent representations of a DW design, Quarry is
//! extensible in that it can link to a variety of execution platforms." The
//! extension point here is [`ExecutionPlatform`] + [`PlatformRegistry`]; two
//! generators ship built in, matching the demo's choices (§3: "We use
//! PostgreSQL for deploying our MD schema solutions, while for running the
//! corresponding ETL flows, we use Pentaho PDI"):
//!
//! - [`postgres`] — `CREATE TABLE` DDL for the star schema, reproducing the
//!   Figure 3 snippet shape (`fact_table_revenue (Partsupp_PartsuppID BIGINT
//!   …, PRIMARY KEY(Partsupp_PartsuppID, Orders_OrdersID))`);
//! - [`pdi`] — Pentaho PDI `.ktr` transformation XML
//!   (`<transformation><order><hop>…`, steps typed `TableInput`,
//!   `FilterRows`, `GroupBy`, `TableOutput`, …).
//!
//! The native in-process platform (deploy onto `quarry-engine` and actually
//! run) lives in the `quarry` façade crate, which owns the engine wiring.

#![forbid(unsafe_code)]

pub mod pdi;
pub mod postgres;
pub mod sql;

use quarry_etl::Flow;
use quarry_md::MdSchema;
use std::collections::BTreeMap;
use std::fmt;

/// A deployable bundle: named artifacts (file name → content).
#[derive(Debug, Clone, Default)]
pub struct DeploymentArtifacts {
    pub files: Vec<(String, String)>,
}

impl DeploymentArtifacts {
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files.iter().find(|(n, _)| n == name).map(|(_, c)| c.as_str())
    }
}

/// Deployment failures.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// The design is not deployable (validation errors).
    InvalidDesign(String),
    UnknownPlatform(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::InvalidDesign(d) => write!(f, "design is not deployable: {d}"),
            DeployError::UnknownPlatform(p) => write!(f, "no execution platform registered as `{p}`"),
        }
    }
}

impl std::error::Error for DeployError {}

/// An execution platform plug-in.
pub trait ExecutionPlatform: Send + Sync {
    /// Registry name, e.g. `postgres-pdi`.
    fn name(&self) -> &str;

    /// Generates the platform executables for a unified design.
    fn deploy(&self, md: &MdSchema, etl: &Flow) -> Result<DeploymentArtifacts, DeployError>;
}

/// The built-in platform of the demo: PostgreSQL DDL + Pentaho PDI KTR.
pub struct PostgresPdi {
    /// Database name used in the DDL and the PDI connection block.
    pub database: String,
}

impl Default for PostgresPdi {
    fn default() -> Self {
        PostgresPdi { database: "demo".into() }
    }
}

impl ExecutionPlatform for PostgresPdi {
    fn name(&self) -> &str {
        "postgres-pdi"
    }

    fn deploy(&self, md: &MdSchema, etl: &Flow) -> Result<DeploymentArtifacts, DeployError> {
        let violations = md.validate();
        if violations.iter().any(|v| v.kind.is_error()) {
            return Err(DeployError::InvalidDesign(
                violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("; "),
            ));
        }
        etl.validate().map_err(|e| DeployError::InvalidDesign(e.to_string()))?;
        Ok(DeploymentArtifacts {
            files: vec![
                ("schema.sql".to_string(), postgres::generate_ddl(md, &self.database)),
                (format!("{}.ktr", etl.name), pdi::generate_ktr(etl, &self.database)?),
            ],
        })
    }
}

/// The platform registry.
pub struct PlatformRegistry {
    platforms: BTreeMap<String, Box<dyn ExecutionPlatform>>,
}

impl PlatformRegistry {
    pub fn empty() -> Self {
        PlatformRegistry { platforms: BTreeMap::new() }
    }

    /// Registry with the built-in PostgreSQL + PDI platform.
    pub fn with_builtins() -> Self {
        let mut r = PlatformRegistry::empty();
        r.register(Box::new(PostgresPdi::default()));
        r
    }

    pub fn register(&mut self, platform: Box<dyn ExecutionPlatform>) {
        self.platforms.insert(platform.name().to_string(), platform);
    }

    pub fn platform_names(&self) -> Vec<&str> {
        self.platforms.keys().map(String::as_str).collect()
    }

    pub fn deploy(&self, platform: &str, md: &MdSchema, etl: &Flow) -> Result<DeploymentArtifacts, DeployError> {
        self.platforms.get(platform).ok_or_else(|| DeployError::UnknownPlatform(platform.to_string()))?.deploy(md, etl)
    }
}

impl Default for PlatformRegistry {
    fn default() -> Self {
        PlatformRegistry::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_md::{DimLink, Dimension, Fact, Level, MdDataType, Measure};

    fn design() -> (MdSchema, Flow) {
        let mut md = MdSchema::new("unified");
        let atomic = Level::new("Part", "PartID", MdDataType::Integer).with_concept("Part");
        md.dimensions.push(Dimension::new("Part", atomic));
        let mut f = Fact::new("fact_table_revenue");
        f.measures.push(Measure::new("revenue", "x"));
        f.dimensions.push(DimLink::new("Part", "Part"));
        md.facts.push(f);

        let mut flow = Flow::new("unified");
        let d = flow
            .add_op(
                "DATASTORE_Part",
                quarry_etl::OpKind::Datastore {
                    datastore: "part".into(),
                    schema: quarry_etl::Schema::new(vec![quarry_etl::Column::new(
                        "p_partkey",
                        quarry_etl::ColType::Integer,
                    )]),
                },
            )
            .unwrap();
        flow.append(d, "LOADER_dim_part", quarry_etl::OpKind::Loader { table: "dim_part".into(), key: vec![] })
            .unwrap();
        (md, flow)
    }

    #[test]
    fn builtin_platform_produces_both_artifacts() {
        let (md, flow) = design();
        let r = PlatformRegistry::with_builtins();
        let artifacts = r.deploy("postgres-pdi", &md, &flow).unwrap();
        assert!(artifacts.file("schema.sql").unwrap().contains("CREATE TABLE"));
        assert!(artifacts.file("unified.ktr").unwrap().contains("<transformation>"));
    }

    #[test]
    fn unknown_platform_errors() {
        let (md, flow) = design();
        let r = PlatformRegistry::with_builtins();
        assert!(matches!(r.deploy("hadoop", &md, &flow), Err(DeployError::UnknownPlatform(_))));
    }

    #[test]
    fn invalid_designs_are_refused() {
        let (mut md, flow) = design();
        md.facts[0].dimensions[0].dimension = "Ghost".into();
        let r = PlatformRegistry::with_builtins();
        assert!(matches!(r.deploy("postgres-pdi", &md, &flow), Err(DeployError::InvalidDesign(_))));
    }

    #[test]
    fn custom_platforms_can_register() {
        struct Pig;
        impl ExecutionPlatform for Pig {
            fn name(&self) -> &str {
                "piglatin"
            }
            fn deploy(&self, _md: &MdSchema, etl: &Flow) -> Result<DeploymentArtifacts, DeployError> {
                Ok(DeploymentArtifacts { files: vec![("script.pig".into(), format!("-- {}", etl.name))] })
            }
        }
        let mut r = PlatformRegistry::with_builtins();
        r.register(Box::new(Pig));
        assert_eq!(r.platform_names(), ["piglatin", "postgres-pdi"]);
        let (md, flow) = design();
        assert!(r.deploy("piglatin", &md, &flow).unwrap().file("script.pig").is_some());
    }
}
