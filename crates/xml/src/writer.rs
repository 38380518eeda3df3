//! Serialization to XML text: one push-style writer. The format bindings
//! drive it straight from their models (no tree on the write side, like the
//! original's Velocity templates); serializing a DOM is a walk over the same
//! writer.

use crate::dom::{Element, Node};
use crate::escape::escape_into;
use std::fmt::{self, Write};

/// How the children of an open element are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Nothing inside yet; the start tag is still open (`<name attr="…"`).
    Empty,
    /// Every child on its own line, one level deeper.
    Block,
    /// Children follow one another without whitespace, and so do theirs.
    Inline,
}

/// Writes XML text as elements are opened, filled and closed.
///
/// The pretty layout is two-space indentation with text-only elements kept
/// on one line (`<name>value</name>`), matching the paper's xMD/xLM
/// snippets. It is decided as children arrive: an element whose first child
/// is an element or a comment puts every child on its own line; one whose
/// first child is text is written inline, descendants included, so no
/// semantically relevant whitespace is invented. An element that holds text
/// *after* an element child must say so up front with
/// [`mixed`](Self::mixed).
#[derive(Debug)]
pub struct XmlWriter<'a> {
    out: String,
    /// The open elements, outermost first.
    open: Vec<(&'a str, Layout)>,
    pretty: bool,
}

/// What [`XmlWriter`] takes as text or as an attribute value: a string, or
/// `format_args!("{value}")` for anything `Display`, which streams through
/// the escaping sink without an intermediate `String`.
pub trait XmlText {
    /// Appends the value to `out`, escaped for an attribute value or for
    /// element text.
    fn write_escaped(self, out: &mut String, attr: bool);
}

impl XmlText for &str {
    fn write_escaped(self, out: &mut String, attr: bool) {
        escape_into(out, self, attr);
    }
}

impl XmlText for &String {
    fn write_escaped(self, out: &mut String, attr: bool) {
        escape_into(out, self, attr);
    }
}

impl XmlText for fmt::Arguments<'_> {
    fn write_escaped(self, out: &mut String, attr: bool) {
        // The sink never fails; an error can only come from a `Display`
        // that gives up, and what it wrote so far stands.
        let _ = Escaped { out, attr }.write_fmt(self);
    }
}

/// The sink `Display` values are written through: escapes as it appends.
struct Escaped<'o> {
    out: &'o mut String,
    attr: bool,
}

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.out, s, self.attr);
        Ok(())
    }
}

impl<'a> XmlWriter<'a> {
    /// A writer with two-space indentation and a trailing newline.
    pub fn pretty() -> Self {
        XmlWriter { out: String::with_capacity(256), open: Vec::new(), pretty: true }
    }

    /// A writer without any inter-element whitespace.
    pub fn compact() -> Self {
        XmlWriter { pretty: false, ..XmlWriter::pretty() }
    }

    /// Makes room for a child of the innermost open element: closes its
    /// start tag, settles its layout and starts the child's line.
    fn begin_child(&mut self, text: bool) {
        let depth = self.open.len();
        let inline_context = match depth.checked_sub(2) {
            Some(parent) => self.open[parent].1 == Layout::Inline,
            None => !self.pretty,
        };
        let Some((_, layout)) = self.open.last_mut() else { return };
        if *layout == Layout::Empty {
            self.out.push('>');
        }
        *layout = match *layout {
            _ if text || inline_context => Layout::Inline,
            Layout::Empty => Layout::Block,
            settled => settled,
        };
        if *layout == Layout::Block {
            self.line(depth);
        }
    }

    fn line(&mut self, depth: usize) {
        const INDENT: &str = "\n                                                                ";
        match INDENT.get(..1 + 2 * depth) {
            Some(line) => self.out.push_str(line),
            None => {
                self.out.push('\n');
                (0..depth).for_each(|_| self.out.push_str("  "));
            }
        }
    }

    /// Opens a child element of the innermost open element (or the root).
    pub fn open(&mut self, name: &'a str) {
        self.begin_child(false);
        self.out.push('<');
        self.out.push_str(name);
        self.open.push((name, Layout::Empty));
    }

    /// Adds an attribute to the element just opened; attributes precede
    /// content.
    pub fn attr(&mut self, name: &str, value: impl XmlText) {
        debug_assert!(matches!(self.open.last(), Some((_, Layout::Empty))), "attributes precede content");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        value.write_escaped(&mut self.out, true);
        self.out.push('"');
    }

    /// Appends text to the innermost open element. Empty text still counts
    /// as content: `<a></a>`, not `<a/>`.
    pub fn text(&mut self, value: impl XmlText) {
        self.begin_child(true);
        value.write_escaped(&mut self.out, false);
    }

    /// Declares that the innermost open element mixes text with elements, so
    /// its children are written inline even when an element comes first.
    pub fn mixed(&mut self) {
        self.begin_child(true);
    }

    /// Appends a comment to the innermost open element.
    pub fn comment(&mut self, body: &str) {
        self.begin_child(false);
        self.out.push_str("<!--");
        self.out.push_str(body);
        self.out.push_str("-->");
    }

    /// Closes the innermost open element.
    pub fn close(&mut self) {
        let Some((name, layout)) = self.open.pop() else { return };
        match layout {
            Layout::Empty => return self.out.push_str("/>"),
            Layout::Block => self.line(self.open.len()),
            Layout::Inline => {}
        }
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push('>');
    }

    /// `<name>text</name>`, the dominant shape in xMD/xLM documents.
    pub fn leaf(&mut self, name: &'a str, text: impl XmlText) {
        self.open(name);
        self.text(text);
        self.close();
    }

    /// Closes whatever is still open and returns the document.
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.close();
        }
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }
}

/// Serializes an element tree with two-space indentation.
pub fn write_pretty(root: &Element) -> String {
    let mut w = XmlWriter::pretty();
    write_element(&mut w, root, true);
    w.finish()
}

/// Serializes an element tree without inter-element whitespace.
pub fn write_compact(root: &Element) -> String {
    let mut w = XmlWriter::compact();
    write_element(&mut w, root, false);
    w.finish()
}

/// Pushes one element through the writer. The writer lays out what arrives;
/// what only the whole child list can tell is decided here: `block` is
/// whether the element's children go on their own lines, which needs an
/// element or comment child, no text but whitespace, and no inline ancestor.
fn write_element<'a>(w: &mut XmlWriter<'a>, e: &'a Element, block: bool) {
    w.open(&e.name);
    for (k, v) in &e.attrs {
        w.attr(k, v);
    }
    let is_text = |n: &Node| matches!(n, Node::Text(_));
    let is_blank = |n: &Node| matches!(n, Node::Text(t) if t.trim().is_empty());
    let structured = !e.children.iter().all(is_text);
    let block = block && structured && e.children.iter().all(|n| !is_text(n) || is_blank(n));
    if structured && !block {
        w.mixed();
    }
    for node in &e.children {
        match node {
            Node::Element(child) => write_element(w, child, block),
            // Pure-whitespace text between block children is layout.
            Node::Text(_) if block => {}
            Node::Text(t) => w.text(t),
            Node::Comment(c) => w.comment(c),
        }
    }
    w.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Element;

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(write_compact(&Element::new("enabled")), "<enabled/>");
    }

    #[test]
    fn text_only_element_stays_inline_in_pretty_mode() {
        let e = Element::new("design").with_child(Element::new("name").with_text("f"));
        assert_eq!(write_pretty(&e), "<design>\n  <name>f</name>\n</design>\n");
    }

    #[test]
    fn nested_structure_indents() {
        let e = Element::new("a").with_child(Element::new("b").with_child(Element::new("c").with_text("x")));
        assert_eq!(write_pretty(&e), "<a>\n  <b>\n    <c>x</c>\n  </b>\n</a>\n");
    }

    #[test]
    fn attributes_are_escaped() {
        let e = Element::new("cmp").with_attr("value", "a<\"b\">&c");
        assert_eq!(write_compact(&e), "<cmp value=\"a&lt;&quot;b&quot;&gt;&amp;c\"/>");
    }

    #[test]
    fn text_is_escaped() {
        let e = Element::new("f").with_text("x < y && z");
        assert_eq!(write_compact(&e), "<f>x &lt; y &amp;&amp; z</f>");
    }

    #[test]
    fn comments_are_emitted() {
        let mut e = Element::new("root");
        e.children.push(crate::Node::Comment(" generated by quarry ".into()));
        assert_eq!(write_compact(&e), "<root><!-- generated by quarry --></root>");
    }

    #[test]
    fn pushed_documents_lay_out_like_the_dom_walk() {
        let mut w = XmlWriter::pretty();
        w.open("design");
        w.attr("version", format_args!("{}.{}", 1, 0));
        w.open("edges");
        w.close();
        w.open("node");
        w.leaf("name", "a<b");
        w.leaf("note", "");
        w.leaf("cost", format_args!("{:.1} & up", 2.0));
        w.close();
        let pushed = w.finish();
        assert_eq!(
            pushed,
            "<design version=\"1.0\">\n  <edges/>\n  <node>\n    <name>a&lt;b</name>\n    <note></note>\n    \
             <cost>2.0 &amp; up</cost>\n  </node>\n</design>\n"
        );
        let parsed = crate::parse(&pushed).unwrap();
        assert_eq!(parsed.path(&["node", "name"]).and_then(Element::text), Some("a<b"));
        // Empty text does not survive a parse, so neither does `<note></note>`.
        assert_eq!(parsed.to_pretty_string(), pushed.replace("<note></note>", "<note/>"));
    }

    #[test]
    fn text_first_or_declared_mixed_content_goes_inline() {
        let mut w = XmlWriter::pretty();
        w.open("p");
        w.mixed();
        w.leaf("m", "revenue");
        w.text(" per ");
        w.open("d");
        w.leaf("l", "part");
        w.close();
        assert_eq!(w.finish(), "<p><m>revenue</m> per <d><l>part</l></d></p>\n");
    }

    #[test]
    fn compact_writers_never_break_lines() {
        let mut w = XmlWriter::compact();
        w.open("a");
        w.open("b");
        w.comment(" c ");
        assert_eq!(w.finish(), "<a><b><!-- c --></b></a>");
    }

    #[test]
    fn mixed_content_serializes_inline() {
        let mut e = Element::new("p");
        e.push_text("sum of ");
        e.push_child(Element::new("m").with_text("revenue"));
        assert_eq!(write_pretty(&e).trim_end(), "<p>sum of <m>revenue</m></p>");
    }
}
