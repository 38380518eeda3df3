//! An OWL-subset XML serialization for domain ontologies.
//!
//! The original Quarry stores domain ontologies as OWL documents handled via
//! Apache Jena. Quarry only ever consumes the structural fragment — classes,
//! datatype properties, subclass axioms, and object properties with
//! cardinalities — so this module defines a compact XML dialect carrying
//! exactly that fragment:
//!
//! ```xml
//! <Ontology name="tpch">
//!   <Class name="Part">
//!     <DatatypeProperty name="p_partkey" type="integer" identifier="true"/>
//!     <DatatypeProperty name="p_name" type="string"/>
//!     <Label>product</Label>
//!   </Class>
//!   <Class name="Lineitem">...</Class>
//!   <SubClassOf sub="Customer" sup="Party"/>
//!   <ObjectProperty name="lineitem_of_part" from="Lineitem" to="Part"
//!                   fromCard="many" toCard="one"/>
//! </Ontology>
//! ```

use crate::model::{DataType, Multiplicity, Ontology};
use quarry_xml::{Element, XmlWriter};
use std::fmt;

/// Errors raised while loading an ontology document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwlxError {
    Xml(quarry_xml::ParseError),
    Structure(String),
}

impl fmt::Display for OwlxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwlxError::Xml(e) => write!(f, "{e}"),
            OwlxError::Structure(msg) => write!(f, "malformed ontology document: {msg}"),
        }
    }
}

impl std::error::Error for OwlxError {}

impl From<quarry_xml::ParseError> for OwlxError {
    fn from(e: quarry_xml::ParseError) -> Self {
        OwlxError::Xml(e)
    }
}

fn structure(msg: impl Into<String>) -> OwlxError {
    OwlxError::Structure(msg.into())
}

/// Serializes an ontology to the OWL-subset XML dialect.
pub fn to_string(onto: &Ontology) -> String {
    let mut w = XmlWriter::pretty();
    w.open("Ontology");
    for cid in onto.concept_ids() {
        let c = onto.concept(cid);
        w.open("Class");
        w.attr("name", &c.name);
        for &pid in &c.properties {
            let p = onto.property_def(pid);
            w.open("DatatypeProperty");
            w.attr("name", &p.name);
            w.attr("type", p.datatype.as_str());
            if p.identifier {
                w.attr("identifier", "true");
            }
            for alias in &p.aliases {
                w.leaf("Label", alias);
            }
            w.close();
        }
        for alias in &c.aliases {
            w.leaf("Label", alias);
        }
        w.close();
    }
    for cid in onto.concept_ids() {
        if let Some(parent) = onto.concept(cid).parent {
            w.open("SubClassOf");
            w.attr("sub", &onto.concept(cid).name);
            w.attr("sup", &onto.concept(parent).name);
            w.close();
        }
    }
    for aid in onto.association_ids() {
        let a = onto.association(aid);
        w.open("ObjectProperty");
        w.attr("name", &a.name);
        w.attr("from", &onto.concept(a.from).name);
        w.attr("to", &onto.concept(a.to).name);
        w.attr("fromCard", a.from_mult.as_str());
        w.attr("toCard", a.to_mult.as_str());
        w.close();
    }
    w.close();
    w.finish()
}

/// Loads an ontology from a parsed OWL-subset document.
pub fn from_xml(root: &Element) -> Result<Ontology, OwlxError> {
    if root.name != "Ontology" {
        return Err(structure(format!("expected <Ontology>, found <{}>", root.name)));
    }
    let mut onto = Ontology::new();
    for class in root.children_named("Class") {
        let name = class.attr("name").ok_or_else(|| structure("<Class> missing name"))?;
        let cid = onto.add_concept(name).map_err(|e| structure(e.to_string()))?;
        for prop in class.children_named("DatatypeProperty") {
            let pname = prop.attr("name").ok_or_else(|| structure("<DatatypeProperty> missing name"))?;
            let dt = prop
                .attr("type")
                .and_then(DataType::parse)
                .ok_or_else(|| structure(format!("property `{pname}` has no valid type")))?;
            let pid = if prop.attr("identifier") == Some("true") {
                onto.add_identifier(cid, pname, dt)
            } else {
                onto.add_property(cid, pname, dt)
            }
            .map_err(|e| structure(e.to_string()))?;
            for label in prop.children_named("Label") {
                if let Some(text) = label.text() {
                    onto.add_property_alias(pid, text);
                }
            }
        }
        for label in class.children_named("Label") {
            if let Some(text) = label.text() {
                onto.add_concept_alias(cid, text);
            }
        }
    }
    for sub in root.children_named("SubClassOf") {
        let child = sub.attr("sub").ok_or_else(|| structure("<SubClassOf> missing sub"))?;
        let parent = sub.attr("sup").ok_or_else(|| structure("<SubClassOf> missing sup"))?;
        let child_id = onto.require_concept(child).map_err(|e| structure(e.to_string()))?;
        let parent_id = onto.require_concept(parent).map_err(|e| structure(e.to_string()))?;
        onto.set_parent(child_id, parent_id).map_err(|e| structure(e.to_string()))?;
    }
    for obj in root.children_named("ObjectProperty") {
        let name = obj.attr("name").ok_or_else(|| structure("<ObjectProperty> missing name"))?;
        let from = obj.attr("from").ok_or_else(|| structure("<ObjectProperty> missing from"))?;
        let to = obj.attr("to").ok_or_else(|| structure("<ObjectProperty> missing to"))?;
        let from_id = onto.require_concept(from).map_err(|e| structure(e.to_string()))?;
        let to_id = onto.require_concept(to).map_err(|e| structure(e.to_string()))?;
        let from_mult = obj
            .attr("fromCard")
            .and_then(Multiplicity::parse)
            .ok_or_else(|| structure(format!("object property `{name}` has no valid fromCard")))?;
        let to_mult = obj
            .attr("toCard")
            .and_then(Multiplicity::parse)
            .ok_or_else(|| structure(format!("object property `{name}` has no valid toCard")))?;
        onto.add_association(name, from_id, from_mult, to_id, to_mult);
    }
    Ok(onto)
}

/// Parses an ontology from an XML string.
pub fn from_string(xml: &str) -> Result<Ontology, OwlxError> {
    from_xml(&quarry_xml::parse(xml)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch;

    #[test]
    fn tpch_roundtrips_through_owlx() {
        let original = tpch::domain().ontology;
        let xml = to_string(&original);
        let loaded = from_string(&xml).unwrap();
        assert_eq!(loaded.concept_count(), original.concept_count());
        assert_eq!(loaded.association_count(), original.association_count());
        // Spot-check structure equivalence.
        let li = loaded.concept_by_name("Lineitem").unwrap();
        assert_eq!(loaded.all_properties(li).len(), 14);
        assert!(loaded.resolve_property_ref("Part_p_nameATRIBUT").is_ok());
        assert!(loaded.resolve_term("product").is_ok(), "vocabulary must survive");
        // Cardinalities survive: Lineitem functionally reaches Region.
        let region = loaded.concept_by_name("Region").unwrap();
        assert!(loaded.functional_path(li, region).is_some());
    }

    #[test]
    fn subclass_axioms_roundtrip() {
        let mut o = Ontology::new();
        let party = o.add_concept("Party").unwrap();
        o.add_property(party, "name", DataType::String).unwrap();
        let cust = o.add_concept("Customer").unwrap();
        o.set_parent(cust, party).unwrap();
        let loaded = from_string(&to_string(&o)).unwrap();
        let lc = loaded.concept_by_name("Customer").unwrap();
        let lp = loaded.concept_by_name("Party").unwrap();
        assert!(loaded.is_subclass_of(lc, lp));
        assert!(loaded.property(lc, "name").is_some(), "inherited property visible after reload");
    }

    #[test]
    fn property_aliases_roundtrip() {
        let mut o = Ontology::new();
        let c = o.add_concept("Lineitem").unwrap();
        let p = o.add_property(c, "l_discount", DataType::Decimal).unwrap();
        o.add_property_alias(p, "discount rate");
        let loaded = from_string(&to_string(&o)).unwrap();
        assert!(loaded.resolve_term("discount rate").is_ok());
    }

    #[test]
    fn rejects_wrong_root() {
        assert!(matches!(from_string("<NotOntology/>"), Err(OwlxError::Structure(_))));
    }

    #[test]
    fn rejects_missing_type() {
        let xml = r#"<Ontology><Class name="A"><DatatypeProperty name="x"/></Class></Ontology>"#;
        assert!(matches!(from_string(xml), Err(OwlxError::Structure(_))));
    }

    #[test]
    fn rejects_unknown_association_endpoint() {
        let xml = r#"<Ontology><Class name="A"/><ObjectProperty name="r" from="A" to="B" fromCard="many" toCard="one"/></Ontology>"#;
        assert!(from_string(xml).is_err());
    }

    #[test]
    fn rejects_invalid_xml() {
        assert!(matches!(from_string("<Ontology><Class"), Err(OwlxError::Xml(_))));
    }

    use crate::model::DataType;
}
