//! Dense per-document lanes for the ranking path.
//!
//! The rank phase asks three questions of every candidate document: which
//! definition owns it (the type filter and the per-definition multipliers),
//! which anchor it is bound to (the exact-anchor bonus), and — for the
//! exact-anchor injection — which documents a segmented entity names. The
//! engine answers all three from arrays indexed by global doc id, resolved
//! once at build from the instances every build already materializes (cold
//! or snapshot restart), so the query path does no string hashing per hit.
//!
//! Anchor texts are interned by their ASCII-lower-cased form: two texts are
//! equal ignoring ASCII case exactly when their ASCII-lower-cased forms are
//! equal, which is the comparison the anchor bonus makes. Injection instead
//! matches the instance *key* case-sensitively, so it compares the exact
//! key suffix after the id probe.

use crate::qunit::QunitInstance;
use irengine::DocId;
use std::borrow::Cow;
use std::collections::HashMap;

/// Anchor-lane value of an instance with no anchor (a singleton qunit).
const NO_ANCHOR: u32 = u32::MAX;

/// Build-time lanes over the engine's instances, indexed by global doc id.
#[derive(Debug, Default)]
pub(crate) struct DocLanes {
    /// doc → catalog index of the owning definition.
    def: Vec<u32>,
    /// doc → anchor id of its anchor text, or [`NO_ANCHOR`].
    anchor: Vec<u32>,
    /// ASCII-lower-cased text → anchor id.
    anchor_ids: HashMap<Box<str>, u32>,
    /// anchor id → docs whose key suffix lower-cases to that anchor's
    /// text, ascending (so in catalog order of their definitions).
    keyed_docs: Vec<Vec<DocId>>,
}

/// The part of an instance key after `"{definition}::"`, if the key has
/// that form — the only keys an exact-anchor injection probe can equal.
pub(crate) fn key_suffix<'k>(key: &'k str, definition: &str) -> Option<&'k str> {
    key.strip_prefix(definition)?.strip_prefix("::")
}

/// `text` with ASCII letters lower-cased, borrowed when it has none to fold
/// (segmented entity text is already lower-case).
fn ascii_folded(text: &str) -> Cow<'_, str> {
    if text.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(text.to_ascii_lowercase())
    } else {
        Cow::Borrowed(text)
    }
}

impl DocLanes {
    /// Lanes for `instances` in doc-id order, where `doc_def[d]` is the
    /// catalog index of doc `d`'s definition and `def_names` is the
    /// catalog's names in order.
    pub(crate) fn new(instances: &[QunitInstance], doc_def: Vec<u32>, def_names: &[&str]) -> Self {
        let mut lanes = DocLanes {
            def: doc_def,
            anchor: Vec::with_capacity(instances.len()),
            ..DocLanes::default()
        };
        for (doc, inst) in instances.iter().enumerate() {
            let name = def_names[lanes.def[doc] as usize];
            let anchor = inst.anchor_text();
            let anchor_id = match &anchor {
                Some(text) => lanes.intern(text),
                None => NO_ANCHOR,
            };
            lanes.anchor.push(anchor_id);
            if let Some(suffix) = key_suffix(&inst.key, name) {
                let id = match &anchor {
                    Some(text) if text == suffix => anchor_id,
                    _ => lanes.intern(suffix),
                };
                lanes.keyed_docs[id as usize].push(doc as DocId);
            }
        }
        lanes
    }

    fn intern(&mut self, text: &str) -> u32 {
        let folded = ascii_folded(text);
        if let Some(&id) = self.anchor_ids.get(folded.as_ref()) {
            return id;
        }
        let id = self.keyed_docs.len() as u32;
        self.anchor_ids.insert(folded.into(), id);
        self.keyed_docs.push(Vec::new());
        id
    }

    /// Catalog index of `doc`'s definition (`doc` must be in range).
    pub(crate) fn def(&self, doc: DocId) -> usize {
        self.def[doc as usize] as usize
    }

    /// Whether `doc` belongs to a definition `allowed` admits — the rank
    /// phase's type filter: two array loads. Out-of-range docs are
    /// rejected.
    pub(crate) fn admits(&self, allowed: &[bool], doc: DocId) -> bool {
        self.def
            .get(doc as usize)
            .is_some_and(|&d| allowed[d as usize])
    }

    /// The anchor id of `doc`'s anchor text, if it has one.
    #[cfg(test)]
    pub(crate) fn anchor(&self, doc: DocId) -> Option<u32> {
        Some(self.anchor[doc as usize]).filter(|&id| id != NO_ANCHOR)
    }

    /// Whether `doc`'s anchor is one of `anchors`.
    pub(crate) fn anchored_on(&self, anchors: &[u32], doc: DocId) -> bool {
        anchors.contains(&self.anchor[doc as usize])
    }

    /// The anchor id of `text` ignoring ASCII case: one table probe.
    pub(crate) fn anchor_id(&self, text: &str) -> Option<u32> {
        self.anchor_ids.get(ascii_folded(text).as_ref()).copied()
    }

    /// Docs whose [`key_suffix`] equals the text of anchor `id` ignoring
    /// ASCII case, ascending.
    pub(crate) fn keyed_docs(&self, id: u32) -> &[DocId] {
        &self.keyed_docs[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Value;

    fn inst(def: &str, anchor: Option<&str>) -> QunitInstance {
        QunitInstance {
            key: format!("{def}::{}", anchor.unwrap_or("*")),
            definition: def.into(),
            anchor_value: anchor.map(|a| Value::Text(a.into())),
            rendered: String::new(),
            text: String::new(),
            fields: Vec::new(),
            tuple_count: 1,
        }
    }

    #[test]
    fn lanes_resolve_definitions_anchors_and_keys() {
        let instances = vec![
            inst("page", Some("Star Wars")),
            inst("page", Some("solaris")),
            inst("cast", Some("star wars")),
            inst("charts", None),
        ];
        let lanes = DocLanes::new(&instances, vec![0, 0, 1, 2], &["page", "cast", "charts"]);
        assert_eq!(
            (0..4).map(|d| lanes.def(d)).collect::<Vec<_>>(),
            [0, 0, 1, 2]
        );
        // case-insensitive anchor ids: both spellings share one id
        let sw = lanes.anchor_id("star wars").unwrap();
        assert_eq!(lanes.anchor_id("STAR WARS"), Some(sw));
        assert!(lanes.anchored_on(&[sw], 0) && lanes.anchored_on(&[sw], 2));
        assert!(!lanes.anchored_on(&[sw], 1) && !lanes.anchored_on(&[sw], 3));
        assert_eq!(lanes.keyed_docs(sw), [0, 2]);
        // the exact suffix keeps the key's case for injection
        assert_eq!(key_suffix(&instances[0].key, "page"), Some("Star Wars"));
        assert_eq!(key_suffix(&instances[3].key, "charts"), Some("*"));
        assert_eq!(key_suffix(&instances[3].key, "chart"), None);
        // the singleton is keyed but carries no anchor
        let star = lanes.anchor_id("*").unwrap();
        assert_eq!(lanes.keyed_docs(star), [3]);
        assert!(!lanes.anchored_on(&[star], 3));
        assert_eq!(lanes.anchor_id("alien"), None);
        // the filter admits by definition; out-of-range docs are rejected
        let allowed = [false, true, false];
        let admitted: Vec<DocId> = (0..5).filter(|&d| lanes.admits(&allowed, d)).collect();
        assert_eq!(admitted, [2]);
    }
}
