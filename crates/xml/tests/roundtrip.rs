//! Property tests: any DOM tree the generator can produce must survive a
//! serialize → parse round-trip, in both pretty and compact layouts, and
//! must come out of the one `XmlWriter` laid out and escaped exactly as the
//! recursive DOM serializer it replaced did.

use proptest::prelude::*;
use quarry_xml::{parse, Element, Node};

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.-]{0,12}"
}

/// Text content, including XML-hostile characters that must be escaped.
/// Leading/trailing whitespace is excluded because the parser trims text runs
/// (the Quarry formats are whitespace-insensitive by design).
fn text_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9<>&\"' =/*()-]{1,24}".prop_map(|s| s.trim().to_string()).prop_filter("non-empty", |s| !s.is_empty())
}

fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (
        name_strategy(),
        prop::collection::vec((name_strategy(), text_strategy()), 0..3),
        prop::option::of(text_strategy()),
    )
        .prop_map(|(name, attrs, text)| {
            let mut e = Element::new(name);
            for (k, v) in attrs {
                // Generator may repeat attribute names; set_attr dedups.
                e.set_attr(k, v);
            }
            if let Some(t) = text {
                e.push_text(t);
            }
            e
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (name_strategy(), prop::collection::vec(inner, 0..4)).prop_map(|(name, children)| {
            let mut e = Element::new(name);
            for c in children {
                e.push_child(c);
            }
            e
        })
    })
}

/// Attribute values and text with everything either context escapes, plus
/// multi-byte characters (a two-, a three- and a four-byte one).
fn hostile_strategy() -> impl Strategy<Value = String> {
    "[a-c&<>\"'\r\n\t é€😀]{0,10}"
}

/// Children of every kind: hostile text, whitespace-only and empty text,
/// comments, and elements that are childless, hold empty text (`<a></a>`),
/// or nest more of the same, so mixed content, text after elements and
/// whitespace between block children all occur.
fn hostile_element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (name_strategy(), prop::collection::vec((name_strategy(), hostile_strategy()), 0..3)).prop_map(
        |(name, attrs)| {
            let mut e = Element::new(name);
            for (k, v) in attrs {
                e.set_attr(k, v);
            }
            e
        },
    );
    leaf.prop_recursive(3, 24, 4, |inner| {
        let node = prop_oneof![
            hostile_strategy().prop_map(Node::Text),
            "[ \n\t]{0,3}".prop_map(Node::Text),
            "[a-c !<>&]{0,6}".prop_map(Node::Comment),
            inner.clone().prop_map(Node::Element),
            inner.prop_map(Node::Element),
        ];
        (name_strategy(), hostile_strategy(), prop::collection::vec(node, 0..5)).prop_map(|(name, attr, children)| {
            let mut e = Element::new(name).with_attr("a", attr);
            e.children = children;
            e
        })
    })
}

/// The layout and escaping rules, pinned: the recursive serializer
/// `XmlWriter` replaced, kept here as the reference the writer is held to.
mod pinned {
    use quarry_xml::{Element, Node};

    fn escape(out: &mut String, s: &str, attr: bool) {
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '\r' => out.push_str("&#13;"),
                '"' if attr => out.push_str("&quot;"),
                '\n' if attr => out.push_str("&#10;"),
                '\t' if attr => out.push_str("&#9;"),
                other => out.push(other),
            }
        }
    }

    fn is_blank_text(n: &Node) -> bool {
        matches!(n, Node::Text(t) if t.trim().is_empty())
    }

    fn element(out: &mut String, e: &Element, depth: usize, pretty: bool) {
        out.push('<');
        out.push_str(&e.name);
        for (k, v) in &e.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape(out, v, true);
            out.push('"');
        }
        if e.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        let structured = e.children.iter().any(|n| !matches!(n, Node::Text(_)));
        let has_text = e.children.iter().any(|n| matches!(n, Node::Text(_)) && !is_blank_text(n));
        let block = pretty && structured && !has_text;
        for n in &e.children {
            if block {
                if is_blank_text(n) {
                    continue;
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            match n {
                Node::Element(child) => element(out, child, depth + 1, block),
                Node::Text(t) => escape(out, t, false),
                Node::Comment(c) => {
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
            }
        }
        if block {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push_str("</");
        out.push_str(&e.name);
        out.push('>');
    }

    pub fn pretty(root: &Element) -> String {
        let mut out = String::new();
        element(&mut out, root, 0, true);
        out.push('\n');
        out
    }

    pub fn compact(root: &Element) -> String {
        let mut out = String::new();
        element(&mut out, root, 0, false);
        out
    }
}

/// The tree a parse of the serialized `e` yields: neighbouring text runs
/// arrive as one, trimmed of the whitespace that was written verbatim (a
/// `\r` goes out as a character reference and survives), and dropped when
/// nothing is left.
fn as_parsed(e: &Element) -> Element {
    let mut out = Element { name: e.name.clone(), attrs: e.attrs.clone(), children: Vec::new() };
    let mut run: Option<String> = None;
    let flush = |run: &mut Option<String>, children: &mut Vec<Node>| {
        if let Some(text) = run.take() {
            let text = text.trim_matches(|c: char| c.is_whitespace() && c != '\r');
            if !text.is_empty() {
                children.push(Node::Text(text.to_string()));
            }
        }
    };
    for n in &e.children {
        match n {
            Node::Text(t) => run.get_or_insert_with(String::new).push_str(t),
            Node::Element(child) => {
                flush(&mut run, &mut out.children);
                out.children.push(Node::Element(as_parsed(child)));
            }
            Node::Comment(c) => {
                flush(&mut run, &mut out.children);
                out.children.push(Node::Comment(c.clone()));
            }
        }
    }
    flush(&mut run, &mut out.children);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_output_equals_the_pinned_layout_and_reparses(e in hostile_element_strategy()) {
        let (pretty, compact) = (e.to_pretty_string(), e.to_compact_string());
        prop_assert_eq!(&pretty, &pinned::pretty(&e));
        prop_assert_eq!(&compact, &pinned::compact(&e));
        for xml in [pretty, compact] {
            let parsed = parse(&xml).unwrap_or_else(|err| panic!("{err}\n---\n{xml}"));
            prop_assert_eq!(parsed, as_parsed(&e));
        }
    }

    #[test]
    fn pretty_roundtrip(e in element_strategy()) {
        let xml = e.to_pretty_string();
        let parsed = parse(&xml).unwrap_or_else(|err| panic!("{err}\n---\n{xml}"));
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn compact_roundtrip(e in element_strategy()) {
        let xml = e.to_compact_string();
        let parsed = parse(&xml).unwrap_or_else(|err| panic!("{err}\n---\n{xml}"));
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn unescape_inverts_escape(s in "[ -~]{0,64}") {
        prop_assert_eq!(quarry_xml::unescape(&quarry_xml::escape_attr(&s)).into_owned(), s.clone());
        prop_assert_eq!(quarry_xml::unescape(&quarry_xml::escape_text(&s)).into_owned(), s);
    }

    #[test]
    fn parser_never_panics(s in "[ -~]{0,128}") {
        let _ = parse(&s);
    }
}
