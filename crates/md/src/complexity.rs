//! Cost models over MD schemata.
//!
//! The paper (§2.3) states that the MD Schema Integrator "produces the
//! optimal solution by applying cost models that capture different quality
//! factors (e.g., structural design complexity)", and the demo (§3) uses
//! *structural design complexity* as the example quality factor for output
//! MD schemata. Cost models are pluggable ("configurable"): the integrator
//! takes any [`CostModel`].

use crate::model::{Dimension, Fact, MdSchema};

/// A quality factor over MD schemata: lower is better.
pub trait CostModel {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// The cost of a schema under this model.
    fn cost(&self, schema: &MdSchema) -> f64;

    /// An additive decomposition of this model, when one exists. Models that
    /// decompose let the integrator score candidate schemas by *element
    /// deltas* instead of constructing and costing a full schema clone per
    /// alternative. The default (`None`) keeps whole-schema costing, so
    /// custom models work unchanged.
    fn decompose(&self) -> Option<&dyn AdditiveCostModel> {
        None
    }
}

/// Per-element view of a cost model that is a sum of independent fact and
/// dimension terms plus a term over the maximum hierarchy depth:
///
/// `cost(s) == Σ fact_cost(f) + Σ dimension_cost(d) + depth_term(max depth)`
///
/// The decomposition must hold exactly (the integrator compares summed
/// element costs against whole-schema costs across code paths), and element
/// costs must not depend on element *names* — the integrator may cost a
/// kept-separate element before its disambiguating rename.
pub trait AdditiveCostModel {
    fn fact_cost(&self, fact: &Fact) -> f64;
    fn dimension_cost(&self, dim: &Dimension) -> f64;
    /// The schema-wide term over the maximum hierarchy depth.
    fn depth_term(&self, max_depth: usize) -> f64;
}

/// Weights of the structural-complexity model. Defaults follow the intuition
/// of MD design-quality metrics (conceptual-model metric suites à la
/// Serrano et al.): tables dominate, attributes and edges refine.
#[derive(Debug, Clone, Copy)]
pub struct ComplexityWeights {
    pub per_fact: f64,
    pub per_dimension: f64,
    pub per_level: f64,
    pub per_attribute: f64,
    pub per_measure: f64,
    pub per_fact_dim_link: f64,
    pub per_rollup: f64,
    /// Multiplied by the *maximum* hierarchy depth of the schema.
    pub per_depth: f64,
}

impl Default for ComplexityWeights {
    fn default() -> Self {
        ComplexityWeights {
            per_fact: 10.0,
            per_dimension: 6.0,
            per_level: 3.0,
            per_attribute: 1.0,
            per_measure: 1.5,
            per_fact_dim_link: 2.0,
            per_rollup: 1.0,
            per_depth: 2.0,
        }
    }
}

/// The paper's demonstrated quality factor: a weighted count of the schema's
/// structural elements. Integrations that reuse conformed dimensions and
/// merge compatible facts score strictly lower than naive unions, which is
/// exactly the signal the MD Schema Integrator optimizes (experiment E6).
#[derive(Debug, Clone, Copy, Default)]
pub struct StructuralComplexity {
    pub weights: ComplexityWeights,
}

impl StructuralComplexity {
    pub fn new() -> Self {
        StructuralComplexity::default()
    }

    pub fn with_weights(weights: ComplexityWeights) -> Self {
        StructuralComplexity { weights }
    }
}

impl CostModel for StructuralComplexity {
    fn name(&self) -> &str {
        "structural-design-complexity"
    }

    fn cost(&self, schema: &MdSchema) -> f64 {
        let w = &self.weights;
        let mut cost = 0.0;
        cost += schema.facts.len() as f64 * w.per_fact;
        for f in &schema.facts {
            cost += f.measures.len() as f64 * w.per_measure;
            cost += f.dimensions.len() as f64 * w.per_fact_dim_link;
        }
        let mut max_depth = 0usize;
        for d in &schema.dimensions {
            cost += w.per_dimension;
            cost += d.levels.len() as f64 * w.per_level;
            cost += d.attribute_count() as f64 * w.per_attribute;
            cost += d.rollups.len() as f64 * w.per_rollup;
            max_depth = max_depth.max(d.depth());
        }
        cost += max_depth as f64 * w.per_depth;
        cost
    }

    fn decompose(&self) -> Option<&dyn AdditiveCostModel> {
        Some(self)
    }
}

impl AdditiveCostModel for StructuralComplexity {
    fn fact_cost(&self, fact: &Fact) -> f64 {
        let w = &self.weights;
        w.per_fact + fact.measures.len() as f64 * w.per_measure + fact.dimensions.len() as f64 * w.per_fact_dim_link
    }

    fn dimension_cost(&self, dim: &Dimension) -> f64 {
        let w = &self.weights;
        w.per_dimension
            + dim.levels.len() as f64 * w.per_level
            + dim.attribute_count() as f64 * w.per_attribute
            + dim.rollups.len() as f64 * w.per_rollup
    }

    fn depth_term(&self, max_depth: usize) -> f64 {
        max_depth as f64 * self.weights.per_depth
    }
}

/// A trivial alternative model counting schema elements uniformly; useful to
/// demonstrate that the integrator's choices are cost-model-driven
/// (ablation in experiment E6).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCountComplexity;

impl CostModel for OpCountComplexity {
    fn name(&self) -> &str {
        "element-count"
    }

    fn cost(&self, schema: &MdSchema) -> f64 {
        let (facts, dims, levels, attrs, measures) = schema.size();
        (facts + dims + levels + attrs + measures) as f64
    }

    fn decompose(&self) -> Option<&dyn AdditiveCostModel> {
        Some(self)
    }
}

impl AdditiveCostModel for OpCountComplexity {
    fn fact_cost(&self, fact: &Fact) -> f64 {
        1.0 + fact.measures.len() as f64
    }

    fn dimension_cost(&self, dim: &Dimension) -> f64 {
        1.0 + dim.levels.len() as f64 + dim.attribute_count() as f64
    }

    fn depth_term(&self, _max_depth: usize) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Attribute, DimLink, Dimension, Fact, Level, MdDataType, MdSchema, Measure};

    fn schema_with(facts: usize, dims: usize) -> MdSchema {
        let mut s = MdSchema::new("s");
        for d in 0..dims {
            let atomic = Level::new(format!("L{d}"), "k", MdDataType::Integer)
                .with_attribute(Attribute::new("a", MdDataType::Text));
            s.dimensions.push(Dimension::new(format!("D{d}"), atomic));
        }
        for fi in 0..facts {
            let mut f = Fact::new(format!("F{fi}"));
            f.measures.push(Measure::new("m", "x"));
            for d in 0..dims {
                f.dimensions.push(DimLink::new(format!("D{d}"), format!("L{d}")));
            }
            s.facts.push(f);
        }
        s
    }

    #[test]
    fn empty_schema_costs_zero() {
        assert_eq!(StructuralComplexity::new().cost(&MdSchema::new("e")), 0.0);
        assert_eq!(OpCountComplexity.cost(&MdSchema::new("e")), 0.0);
    }

    #[test]
    fn cost_grows_with_elements() {
        let m = StructuralComplexity::new();
        let small = m.cost(&schema_with(1, 2));
        let large = m.cost(&schema_with(2, 4));
        assert!(large > small, "{large} !> {small}");
    }

    #[test]
    fn shared_dimensions_cost_less_than_duplicated_ones() {
        let m = StructuralComplexity::new();
        // Two facts sharing 2 dims vs. two facts with private copies (4 dims).
        let shared = m.cost(&schema_with(2, 2));
        let duplicated = m.cost(&schema_with(2, 4));
        assert!(shared < duplicated);
    }

    #[test]
    fn depth_contributes() {
        let mut flat = schema_with(1, 1);
        let deep = {
            let mut s = flat.clone();
            let d = s.dimension_mut("D0").unwrap();
            d.add_level_above("L0", Level::new("Up1", "k", MdDataType::Text));
            d.add_level_above("Up1", Level::new("Up2", "k", MdDataType::Text));
            s
        };
        let m = StructuralComplexity::new();
        assert!(m.cost(&deep) > m.cost(&flat));
        // Zeroing the depth weight reduces (but does not eliminate, since
        // levels/rollups still count) the difference.
        // Zero every weight the extra levels touch (they also carry key
        // attributes).
        let w = ComplexityWeights {
            per_depth: 0.0,
            per_level: 0.0,
            per_rollup: 0.0,
            per_attribute: 0.0,
            ..ComplexityWeights::default()
        };
        let m0 = StructuralComplexity::with_weights(w);
        assert_eq!(m0.cost(&deep), m0.cost(&flat));
        flat.facts.clear();
    }

    #[test]
    fn decomposition_sums_to_whole_schema_cost() {
        let schemas = [schema_with(0, 0), schema_with(1, 2), schema_with(3, 4), {
            let mut s = schema_with(2, 2);
            let d = s.dimension_mut("D0").unwrap();
            d.add_level_above("L0", Level::new("Up1", "k", MdDataType::Text));
            s
        }];
        let models: [&dyn CostModel; 2] = [&StructuralComplexity::new(), &OpCountComplexity];
        for model in models {
            let am = model.decompose().expect("built-ins decompose");
            for s in &schemas {
                let mut sum = 0.0;
                for f in &s.facts {
                    sum += am.fact_cost(f);
                }
                let mut max_depth = 0;
                for d in &s.dimensions {
                    sum += am.dimension_cost(d);
                    max_depth = max_depth.max(d.depth());
                }
                sum += am.depth_term(max_depth);
                assert_eq!(sum, model.cost(s), "{} decomposition drifts", model.name());
            }
        }
    }

    #[test]
    fn models_report_names() {
        assert_eq!(StructuralComplexity::new().name(), "structural-design-complexity");
        assert_eq!(OpCountComplexity.name(), "element-count");
    }
}
