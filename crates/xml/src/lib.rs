//! Minimal, dependency-free XML infrastructure for the Quarry workspace.
//!
//! Quarry's logical formats (xRQ, xMD, xLM), its OWL-subset ontology loader,
//! the Pentaho-PDI deployment artifacts, and the generic XML↔JSON converter of
//! the Communication & Metadata layer all speak XML. The original system used
//! Apache Velocity templates for generation and the Java SAX parser for
//! reading; this crate provides the equivalent substrate: a small DOM
//! ([`Element`], [`Node`]), a forgiving, positioned parser ([`parse`]), and one
//! push-style writer ([`XmlWriter`]); serializing a DOM is a walk over it.
//!
//! The dialect supported is exactly what the Quarry formats need:
//! declarations, elements, attributes, text, CDATA, comments, and the five
//! predefined entities plus numeric character references. DTDs and processing
//! instructions are tolerated and skipped.
//!
//! ```
//! use quarry_xml::Element;
//!
//! let doc = Element::new("design")
//!     .with_attr("version", "1.0")
//!     .with_child(Element::new("name").with_text("fact_table_revenue"));
//! let xml = doc.to_pretty_string();
//! let back = quarry_xml::parse(&xml).unwrap();
//! assert_eq!(back.child_text("name"), Some("fact_table_revenue"));
//! ```

#![forbid(unsafe_code)]

mod dom;
mod error;
mod escape;
mod parser;
mod writer;

pub use dom::{Element, Node};
pub use error::{ParseError, Pos};
pub use escape::{escape_attr, escape_text, unescape};
pub use parser::parse;
pub use writer::{write_compact, write_pretty, XmlText, XmlWriter};

/// Result alias for XML parsing.
pub type Result<T> = std::result::Result<T, ParseError>;
