//! xRQ: information requirements as analytical queries.
//!
//! The dialect follows the paper's Figure 4 snippet:
//!
//! ```xml
//! <cube id="IR1">
//!   <dimensions>
//!     <concept id="Part_p_nameATRIBUT"/>
//!     <concept id="Supplier_s_nameATRIBUT"/>
//!   </dimensions>
//!   <measures>
//!     <concept id="revenue">
//!       <function>Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT</function>
//!     </concept>
//!   </measures>
//!   <slicers>
//!     <comparison>
//!       <concept id="Nation_n_nameATRIBUT"/>
//!       <operator>=</operator>
//!       <value>Spain</value>
//!     </comparison>
//!   </slicers>
//!   <aggregations>
//!     <aggregation order="1">
//!       <dimension refID="Part_p_nameATRIBUT"/>
//!       <measure refID="revenue"/>
//!       <function>AVERAGE</function>
//!     </aggregation>
//!   </aggregations>
//! </cube>
//! ```

use crate::error::FormatError;
use quarry_xml::{Element, XmlWriter};

/// A measure requested by a requirement: a name plus a derivation function
/// over ontology property references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Measure name, e.g. `revenue`.
    pub id: String,
    /// Derivation expression over `Concept_propATRIBUT` references; a bare
    /// property reference when the measure is a source property itself.
    pub function: String,
}

/// A slicer: a comparison pinning an analysis context, e.g.
/// `Nation_n_name = 'Spain'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slicer {
    /// The sliced property reference (`Nation_n_nameATRIBUT`).
    pub concept: String,
    /// Comparison operator: `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub operator: String,
    /// Literal right-hand side, as text.
    pub value: String,
}

/// An aggregation directive: aggregate `measure` by `dimension` with
/// `function`, at roll-up `order`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregation {
    pub order: u32,
    /// Dimension property reference (matches an entry of `dimensions`).
    pub dimension: String,
    /// Measure id (matches a [`MeasureSpec::id`]).
    pub measure: String,
    /// Aggregation function name (`SUM`, `AVERAGE`, …).
    pub function: String,
}

/// An information requirement (one xRQ document).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Requirement {
    /// Requirement id, e.g. `IR1`.
    pub id: String,
    /// Optional natural-language statement of the need.
    pub description: String,
    /// Analysis dimensions as property references.
    pub dimensions: Vec<String>,
    pub measures: Vec<MeasureSpec>,
    pub slicers: Vec<Slicer>,
    pub aggregations: Vec<Aggregation>,
}

impl Requirement {
    pub fn new(id: impl Into<String>) -> Self {
        Requirement { id: id.into(), ..Requirement::default() }
    }

    /// The aggregation function requested for a measure (first matching
    /// directive), if any.
    pub fn agg_for(&self, measure: &str) -> Option<&str> {
        self.aggregations.iter().find(|a| a.measure == measure).map(|a| a.function.as_str())
    }

    /// Serializes to an xRQ document string.
    pub fn to_string_pretty(&self) -> String {
        let mut w = XmlWriter::pretty();
        w.open("cube");
        w.attr("id", &self.id);
        if !self.description.is_empty() {
            w.leaf("description", &self.description);
        }
        w.open("dimensions");
        for d in &self.dimensions {
            w.open("concept");
            w.attr("id", d);
            w.close();
        }
        w.close();
        w.open("measures");
        for m in &self.measures {
            w.open("concept");
            w.attr("id", &m.id);
            w.leaf("function", &m.function);
            w.close();
        }
        w.close();
        w.open("slicers");
        for s in &self.slicers {
            w.open("comparison");
            w.open("concept");
            w.attr("id", &s.concept);
            w.close();
            w.leaf("operator", &s.operator);
            w.leaf("value", &s.value);
            w.close();
        }
        w.close();
        w.open("aggregations");
        for a in &self.aggregations {
            w.open("aggregation");
            w.attr("order", format_args!("{}", a.order));
            w.open("dimension");
            w.attr("refID", &a.dimension);
            w.close();
            w.open("measure");
            w.attr("refID", &a.measure);
            w.close();
            w.leaf("function", &a.function);
            w.close();
        }
        w.close();
        w.close();
        w.finish()
    }

    /// Parses from the xRQ DOM.
    pub fn from_xml(root: &Element) -> Result<Requirement, FormatError> {
        if root.name != "cube" {
            return Err(FormatError::structure(format!("expected <cube>, found <{}>", root.name)));
        }
        let mut req = Requirement::new(root.attr("id").unwrap_or("IR"));
        req.description = root.child_text("description").unwrap_or_default().to_string();
        if let Some(dims) = root.child("dimensions") {
            for c in dims.children_named("concept") {
                let id = c.attr("id").ok_or_else(|| FormatError::structure("<concept> without id in <dimensions>"))?;
                req.dimensions.push(id.to_string());
            }
        }
        if let Some(measures) = root.child("measures") {
            for c in measures.children_named("concept") {
                let id = c.attr("id").ok_or_else(|| FormatError::structure("<concept> without id in <measures>"))?;
                let function = c.child_text("function").unwrap_or(id).to_string();
                req.measures.push(MeasureSpec { id: id.to_string(), function });
            }
        }
        if let Some(slicers) = root.child("slicers") {
            for c in slicers.children_named("comparison") {
                let concept = c
                    .child("concept")
                    .and_then(|e| e.attr("id"))
                    .ok_or_else(|| FormatError::structure("<comparison> without <concept id>"))?;
                let operator = c
                    .child_text("operator")
                    .ok_or_else(|| FormatError::structure("<comparison> without <operator>"))?;
                let value =
                    c.child_text("value").ok_or_else(|| FormatError::structure("<comparison> without <value>"))?;
                req.slicers.push(Slicer {
                    concept: concept.to_string(),
                    operator: operator.to_string(),
                    value: value.to_string(),
                });
            }
        }
        if let Some(aggs) = root.child("aggregations") {
            for a in aggs.children_named("aggregation") {
                let order = a.attr("order").and_then(|o| o.parse().ok()).unwrap_or(1);
                let dimension = a
                    .child("dimension")
                    .and_then(|e| e.attr("refID"))
                    .ok_or_else(|| FormatError::structure("<aggregation> without <dimension refID>"))?;
                let measure = a
                    .child("measure")
                    .and_then(|e| e.attr("refID"))
                    .ok_or_else(|| FormatError::structure("<aggregation> without <measure refID>"))?;
                let function = a
                    .child_text("function")
                    .ok_or_else(|| FormatError::structure("<aggregation> without <function>"))?;
                req.aggregations.push(Aggregation {
                    order,
                    dimension: dimension.to_string(),
                    measure: measure.to_string(),
                    function: function.to_string(),
                });
            }
        }
        Ok(req)
    }

    /// Parses an xRQ document string.
    pub fn parse(xml: &str) -> Result<Requirement, FormatError> {
        Requirement::from_xml(&quarry_xml::parse(xml)?)
    }
}

/// The paper's Figure 4 requirement: *average revenue per part and supplier
/// for orders from Spain*, revenue = extendedprice × discount (sic — the
/// figure derives revenue exactly so; quickstart uses the usual
/// price × (1 − discount)).
pub fn figure4_requirement() -> Requirement {
    Requirement {
        id: "IR1".into(),
        description: "Analyze the average revenue per part and supplier, for nation Spain".into(),
        dimensions: vec!["Part_p_nameATRIBUT".into(), "Supplier_s_nameATRIBUT".into()],
        measures: vec![MeasureSpec {
            id: "revenue".into(),
            function: "Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT".into(),
        }],
        slicers: vec![Slicer { concept: "Nation_n_nameATRIBUT".into(), operator: "=".into(), value: "Spain".into() }],
        aggregations: vec![
            Aggregation {
                order: 1,
                dimension: "Part_p_nameATRIBUT".into(),
                measure: "revenue".into(),
                function: "AVERAGE".into(),
            },
            Aggregation {
                order: 1,
                dimension: "Supplier_s_nameATRIBUT".into(),
                measure: "revenue".into(),
                function: "AVERAGE".into(),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_roundtrip() {
        let req = figure4_requirement();
        let xml = req.to_string_pretty();
        let parsed = Requirement::parse(&xml).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn figure4_shape_matches_the_paper_snippet() {
        let xml = figure4_requirement().to_string_pretty();
        for needle in [
            r#"<concept id="Part_p_nameATRIBUT"/>"#,
            r#"<concept id="Supplier_s_nameATRIBUT"/>"#,
            r#"<concept id="revenue">"#,
            "<function>Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT</function>",
            "<operator>=</operator>",
            "<value>Spain</value>",
            r#"<aggregation order="1">"#,
            "<function>AVERAGE</function>",
        ] {
            assert!(xml.contains(needle), "missing `{needle}` in\n{xml}");
        }
    }

    #[test]
    fn parses_the_paper_snippet_verbatim() {
        let xml = r#"<cube>
          <dimensions>
            <concept id="Part_p_nameATRIBUT"/>
            <concept id="Supplier_s_nameATRIBUT"/>
          </dimensions>
          <measures>
            <concept id="revenue">
              <function>Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT</function>
            </concept>
          </measures>
          <slicers>
            <comparison>
              <concept id="Nation_n_nameATRIBUT"/>
              <operator>=</operator>
              <value>Spain</value>
            </comparison>
          </slicers>
          <aggregations>
            <aggregation order="1">
              <dimension refID="Part_p_nameATRIBUT"/>
              <measure refID="revenue"/>
              <function>AVERAGE</function>
            </aggregation>
          </aggregations>
        </cube>"#;
        let req = Requirement::parse(xml).unwrap();
        assert_eq!(req.dimensions.len(), 2);
        assert_eq!(req.measures[0].id, "revenue");
        assert_eq!(req.slicers[0].value, "Spain");
        assert_eq!(req.agg_for("revenue"), Some("AVERAGE"));
    }

    #[test]
    fn measure_without_function_defaults_to_its_id() {
        let xml = r#"<cube id="IR2"><measures><concept id="Lineitem_l_quantityATRIBUT"/></measures></cube>"#;
        let req = Requirement::parse(xml).unwrap();
        assert_eq!(req.measures[0].function, "Lineitem_l_quantityATRIBUT");
    }

    #[test]
    fn missing_id_defaults_and_empty_sections_are_fine() {
        let req = Requirement::parse("<cube/>").unwrap();
        assert_eq!(req.id, "IR");
        assert!(req.dimensions.is_empty() && req.measures.is_empty());
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(Requirement::parse("<notcube/>"), Err(FormatError::Structure(_))));
        assert!(matches!(
            Requirement::parse("<cube><dimensions><concept/></dimensions></cube>"),
            Err(FormatError::Structure(_))
        ));
        assert!(matches!(
            Requirement::parse("<cube><slicers><comparison><operator>=</operator></comparison></slicers></cube>"),
            Err(FormatError::Structure(_))
        ));
        assert!(matches!(Requirement::parse("<cube"), Err(FormatError::Xml(_))));
    }

    #[test]
    fn aggregation_order_defaults_to_one() {
        let xml = r#"<cube><aggregations><aggregation>
            <dimension refID="d"/><measure refID="m"/><function>SUM</function>
        </aggregation></aggregations></cube>"#;
        let req = Requirement::parse(xml).unwrap();
        assert_eq!(req.aggregations[0].order, 1);
    }
}
