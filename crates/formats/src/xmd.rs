//! xMD: the XML binding of multidimensional schemata.
//!
//! Matches the shape of the paper's Figure 3/4 snippets
//! (`<MDschema><facts><fact><name>fact_table_revenue</name>…`), extended
//! with the typed detail the deployers need (datatypes, additivity,
//! hierarchy annotations) and with `<satisfies>` requirement traceability.

use crate::error::FormatError;
use quarry_md::{
    Additivity, AggFn, Attribute, DimLink, Dimension, Fact, Level, MdDataType, MdSchema, Measure, ReqSet, Rollup,
};
use quarry_xml::{Element, XmlWriter};

fn write_satisfies(w: &mut XmlWriter<'_>, reqs: &ReqSet) {
    if reqs.is_empty() {
        return;
    }
    w.open("satisfies");
    for r in reqs {
        w.leaf("req", r);
    }
    w.close();
}

fn satisfies_from_xml(parent: &Element) -> ReqSet {
    let mut out = ReqSet::new();
    if let Some(s) = parent.child("satisfies") {
        for r in s.children_named("req") {
            if let Some(t) = r.text() {
                out.insert(t.to_string());
            }
        }
    }
    out
}

fn req_text(e: &Element, name: &str) -> Result<String, FormatError> {
    e.child_text(name)
        .map(str::to_string)
        .ok_or_else(|| FormatError::structure(format!("<{}> missing <{name}>", e.name)))
}

/// Serializes an MD schema to an xMD document string.
pub fn to_string(schema: &MdSchema) -> String {
    let bool_text = |b: bool| if b { "true" } else { "false" };
    let mut w = XmlWriter::pretty();
    w.open("MDschema");
    w.attr("name", &schema.name);
    w.open("facts");
    for f in &schema.facts {
        w.open("fact");
        w.leaf("name", &f.name);
        if let Some(c) = &f.concept {
            w.leaf("concept", c);
        }
        w.open("measures");
        for m in &f.measures {
            w.open("measure");
            w.leaf("name", &m.name);
            w.leaf("expression", &m.expression);
            w.leaf("datatype", m.datatype.as_str());
            w.leaf("additivity", m.additivity.as_str());
            w.leaf("aggregation", m.default_agg.as_str());
            write_satisfies(&mut w, &m.satisfies);
            w.close();
        }
        w.close();
        w.open("dimensionRefs");
        for d in &f.dimensions {
            w.open("dimensionRef");
            w.leaf("dimension", &d.dimension);
            w.leaf("level", &d.level);
            write_satisfies(&mut w, &d.satisfies);
            w.close();
        }
        w.close();
        write_satisfies(&mut w, &f.satisfies);
        w.close();
    }
    w.close();
    w.open("dimensions");
    for d in &schema.dimensions {
        w.open("dimension");
        w.leaf("name", &d.name);
        w.leaf("atomic", &d.atomic);
        w.leaf("temporal", bool_text(d.temporal));
        w.open("levels");
        for l in &d.levels {
            w.open("level");
            w.leaf("name", &l.name);
            w.leaf("key", &l.key);
            w.leaf("keyType", l.key_type.as_str());
            if let Some(c) = &l.concept {
                w.leaf("concept", c);
            }
            w.open("attributes");
            for a in &l.attributes {
                w.open("attribute");
                w.leaf("name", &a.name);
                w.leaf("datatype", a.datatype.as_str());
                write_satisfies(&mut w, &a.satisfies);
                w.close();
            }
            w.close();
            write_satisfies(&mut w, &l.satisfies);
            w.close();
        }
        w.close();
        w.open("rollups");
        for r in &d.rollups {
            w.open("rollup");
            w.leaf("child", &r.child);
            w.leaf("parent", &r.parent);
            w.leaf("strict", bool_text(r.strict));
            w.leaf("total", bool_text(r.total));
            w.close();
        }
        w.close();
        write_satisfies(&mut w, &d.satisfies);
        w.close();
    }
    w.close();
    w.close();
    w.finish()
}

/// Parses an MD schema from the xMD DOM.
pub fn from_xml(root: &Element) -> Result<MdSchema, FormatError> {
    if root.name != "MDschema" {
        return Err(FormatError::structure(format!("expected <MDschema>, found <{}>", root.name)));
    }
    let mut schema = MdSchema::new(root.attr("name").unwrap_or("unnamed"));
    if let Some(facts) = root.child("facts") {
        for fe in facts.children_named("fact") {
            let mut f = Fact::new(req_text(fe, "name")?);
            f.concept = fe.child_text("concept").map(str::to_string);
            f.satisfies = satisfies_from_xml(fe);
            if let Some(measures) = fe.child("measures") {
                for me in measures.children_named("measure") {
                    let mut m = Measure::new(req_text(me, "name")?, req_text(me, "expression")?);
                    m.datatype = me
                        .child_text("datatype")
                        .and_then(MdDataType::parse)
                        .ok_or_else(|| FormatError::structure("measure without a valid <datatype>"))?;
                    m.additivity = me
                        .child_text("additivity")
                        .and_then(Additivity::parse)
                        .ok_or_else(|| FormatError::structure("measure without a valid <additivity>"))?;
                    m.default_agg = me
                        .child_text("aggregation")
                        .and_then(AggFn::parse)
                        .ok_or_else(|| FormatError::structure("measure without a valid <aggregation>"))?;
                    m.satisfies = satisfies_from_xml(me);
                    f.measures.push(m);
                }
            }
            if let Some(links) = fe.child("dimensionRefs") {
                for de in links.children_named("dimensionRef") {
                    let mut link = DimLink::new(req_text(de, "dimension")?, req_text(de, "level")?);
                    link.satisfies = satisfies_from_xml(de);
                    f.dimensions.push(link);
                }
            }
            schema.facts.push(f);
        }
    }
    if let Some(dims) = root.child("dimensions") {
        for de in dims.children_named("dimension") {
            let name = req_text(de, "name")?;
            let atomic = req_text(de, "atomic")?;
            let mut levels = Vec::new();
            if let Some(ls) = de.child("levels") {
                for le in ls.children_named("level") {
                    let key_type = le
                        .child_text("keyType")
                        .and_then(MdDataType::parse)
                        .ok_or_else(|| FormatError::structure("level without a valid <keyType>"))?;
                    let mut level = Level::new(req_text(le, "name")?, req_text(le, "key")?, key_type);
                    level.concept = le.child_text("concept").map(str::to_string);
                    level.satisfies = satisfies_from_xml(le);
                    if let Some(attrs) = le.child("attributes") {
                        for ae in attrs.children_named("attribute") {
                            let dt = ae
                                .child_text("datatype")
                                .and_then(MdDataType::parse)
                                .ok_or_else(|| FormatError::structure("attribute without a valid <datatype>"))?;
                            let mut attr = Attribute::new(req_text(ae, "name")?, dt);
                            attr.satisfies = satisfies_from_xml(ae);
                            level.attributes.push(attr);
                        }
                    }
                    levels.push(level);
                }
            }
            if levels.is_empty() {
                return Err(FormatError::structure(format!("dimension `{name}` has no levels")));
            }
            let mut dim = Dimension {
                name,
                atomic,
                levels,
                rollups: Vec::new(),
                temporal: de.child_text("temporal") == Some("true"),
                satisfies: satisfies_from_xml(de),
            };
            if let Some(rs) = de.child("rollups") {
                for re in rs.children_named("rollup") {
                    dim.rollups.push(Rollup {
                        child: req_text(re, "child")?,
                        parent: req_text(re, "parent")?,
                        strict: re.child_text("strict") != Some("false"),
                        total: re.child_text("total") != Some("false"),
                    });
                }
            }
            schema.dimensions.push(dim);
        }
    }
    Ok(schema)
}

/// Parses an xMD document string.
pub fn parse(xml: &str) -> Result<MdSchema, FormatError> {
    from_xml(&quarry_xml::parse(xml)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_md::AggFn;

    fn sample() -> MdSchema {
        let mut s = MdSchema::new("unified");
        let atomic = Level::new("Part", "p_partkey", MdDataType::Integer)
            .with_concept("Part")
            .with_attribute(Attribute::new("p_name", MdDataType::Text));
        let mut dim = Dimension::new("Part", atomic);
        dim.add_level_above("Part", Level::new("Brand", "p_brand", MdDataType::Text));
        dim.rollups[0].strict = false;
        s.dimensions.push(dim);
        let mut f = Fact::new("fact_table_revenue");
        f.concept = Some("Lineitem".into());
        f.measures.push(
            Measure::new("revenue", "Lineitem_l_extendedpriceATRIBUT * Lineitem_l_discountATRIBUT")
                .with_agg(AggFn::Avg),
        );
        f.dimensions.push(DimLink::new("Part", "Part"));
        s.facts.push(f);
        s.stamp_requirement("IR1");
        s
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let xml = to_string(&s);
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn shape_matches_paper_snippet() {
        let xml = to_string(&sample());
        assert!(xml.contains("<MDschema"));
        assert!(xml.contains("<facts>"));
        assert!(xml.contains("<fact>"));
        assert!(xml.contains("<name>fact_table_revenue</name>"));
        assert!(xml.contains("<dimension>"));
        assert!(xml.contains("<name>Part</name>"));
    }

    #[test]
    fn satisfies_traceability_survives() {
        let xml = to_string(&sample());
        let parsed = parse(&xml).unwrap();
        assert!(parsed.fact("fact_table_revenue").unwrap().satisfies.contains("IR1"));
        assert!(parsed.dimension("Part").unwrap().levels[0].satisfies.contains("IR1"));
    }

    #[test]
    fn hierarchy_annotations_survive() {
        let parsed = parse(&to_string(&sample())).unwrap();
        let dim = parsed.dimension("Part").unwrap();
        assert!(!dim.rollups[0].strict);
        assert!(dim.rollups[0].total);
    }

    #[test]
    fn parsed_schema_validates_like_the_original() {
        let s = sample();
        let parsed = parse(&to_string(&s)).unwrap();
        assert_eq!(parsed.validate().len(), s.validate().len());
    }

    #[test]
    fn structural_errors_are_reported() {
        assert!(matches!(parse("<NotMD/>"), Err(FormatError::Structure(_))));
        assert!(matches!(parse("<MDschema><facts><fact/></facts></MDschema>"), Err(FormatError::Structure(_))));
        let no_levels =
            "<MDschema><dimensions><dimension><name>D</name><atomic>L</atomic></dimension></dimensions></MDschema>";
        assert!(matches!(parse(no_levels), Err(FormatError::Structure(_))));
    }

    #[test]
    fn empty_schema_roundtrips() {
        let s = MdSchema::new("empty");
        assert_eq!(parse(&to_string(&s)).unwrap(), s);
    }
}
