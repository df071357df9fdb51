//! Relational schema: named attributes with discrete domains.

use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an attribute (a column position in the schema).
///
/// `AttrId` is the coin of the realm throughout HypDB: covariate sets,
/// Markov boundaries, group-by keys and count-table axes are all sets of
/// `AttrId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The attribute's position as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Metadata of one attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrMeta {
    /// Attribute name as it appears in queries.
    pub name: String,
}

/// An ordered list of named attributes with a name → id index.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    attrs: Vec<AttrMeta>,
    by_name: FxHashMap<String, AttrId>,
}

impl Schema {
    /// Builds a schema from attribute names. Duplicate names keep the
    /// first id (lookups resolve to the first occurrence).
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut schema = Schema::default();
        for name in names {
            schema.push(name.into());
        }
        schema
    }

    /// Appends an attribute and returns its id.
    pub fn push(&mut self, name: String) -> AttrId {
        let id = AttrId(self.attrs.len() as u32);
        self.by_name.entry(name.clone()).or_insert(id);
        self.attrs.push(AttrMeta { name });
        id
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if the schema has no attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Resolves an attribute name to its id.
    pub fn attr(&self, name: &str) -> Result<AttrId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))
    }

    /// Name of an attribute.
    pub fn name(&self, id: AttrId) -> &str {
        &self.attrs[id.index()].name
    }

    /// Iterates over all attribute ids in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len() as u32).map(AttrId)
    }

    /// Checks an id is in range.
    pub fn check(&self, id: AttrId) -> Result<()> {
        if id.index() < self.attrs.len() {
            Ok(())
        } else {
            Err(Error::InvalidAttrId(id.0))
        }
    }

    /// All attribute metadata in schema order.
    pub fn attrs(&self) -> &[AttrMeta] {
        &self.attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_resolution() {
        let s = Schema::new(["a", "b", "c"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.attr("b").unwrap(), AttrId(1));
        assert_eq!(s.name(AttrId(2)), "c");
        assert!(s.attr("missing").is_err());
    }

    #[test]
    fn duplicate_names_resolve_to_first() {
        let s = Schema::new(["x", "x"]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.attr("x").unwrap(), AttrId(0));
    }

    #[test]
    fn check_bounds() {
        let s = Schema::new(["a"]);
        assert!(s.check(AttrId(0)).is_ok());
        assert!(s.check(AttrId(1)).is_err());
    }

    #[test]
    fn attr_ids_in_order() {
        let s = Schema::new(["a", "b"]);
        let ids: Vec<_> = s.attr_ids().collect();
        assert_eq!(ids, vec![AttrId(0), AttrId(1)]);
    }
}
