//! Access trees: monotone Boolean policies over attributes (§4.4).
//!
//! The home network expresses satellite access-control policies as access
//! trees `A` in the form of Boolean formulas, e.g. the paper's example:
//!
//! > `A(S) = {(S is UE and S.SUPI == UE.SUPI) or (S is satellite and
//! >  S supports QoS and S.bandwidth > 10Gbps)}`
//!
//! Attributes are opaque strings (comparisons like `bandwidth > 10Gbps`
//! are flattened into grantable attribute tokens such as
//! `"bw>=10g"`, as real ABE deployments do via bag-of-bits encodings).
//! Trees compose `Leaf`, `And`, `Or`, and general `Threshold(k)` gates.

use std::collections::BTreeSet;

/// An attribute token (opaque string, e.g. `"role:satellite"`,
//  `"qos"`, `"bw>=10g"`, `"supi:460011234"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Attribute(pub String);

impl Attribute {
    pub fn new(s: impl Into<String>) -> Self {
        Attribute(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Attribute {
    fn from(s: &str) -> Self {
        Attribute(s.to_string())
    }
}

impl std::fmt::Display for Attribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A monotone access tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessTree {
    /// Satisfied iff the attribute set contains this attribute.
    Leaf(Attribute),
    /// Satisfied iff all children are satisfied (n-of-n threshold).
    And(Vec<AccessTree>),
    /// Satisfied iff any child is satisfied (1-of-n threshold).
    Or(Vec<AccessTree>),
    /// Satisfied iff at least `k` children are satisfied.
    Threshold { k: usize, children: Vec<AccessTree> },
}

impl AccessTree {
    /// Convenience leaf constructor.
    pub fn leaf(attr: impl Into<String>) -> Self {
        AccessTree::Leaf(Attribute::new(attr))
    }

    /// Convenience AND of leaves.
    pub fn all_of(attrs: &[&str]) -> Self {
        AccessTree::And(attrs.iter().map(|a| Self::leaf(*a)).collect())
    }

    /// The effective threshold `(k, n)` of this node's gate.
    ///
    /// # Panics
    /// Panics on malformed gates (no children, or k out of range) — trees
    /// are built by the home network, so malformed policies are bugs.
    pub fn gate(&self) -> (usize, usize) {
        match self {
            AccessTree::Leaf(_) => (1, 1),
            AccessTree::And(c) => {
                assert!(!c.is_empty(), "AND gate with no children");
                (c.len(), c.len())
            }
            AccessTree::Or(c) => {
                assert!(!c.is_empty(), "OR gate with no children");
                (1, c.len())
            }
            AccessTree::Threshold { k, children } => {
                assert!(
                    *k >= 1 && *k <= children.len(),
                    "threshold {k} of {} children",
                    children.len()
                );
                (*k, children.len())
            }
        }
    }

    /// Child nodes (empty for leaves).
    pub fn children(&self) -> &[AccessTree] {
        match self {
            AccessTree::Leaf(_) => &[],
            AccessTree::And(c) | AccessTree::Or(c) => c,
            AccessTree::Threshold { children, .. } => children,
        }
    }

    /// Is the tree satisfied by this attribute set?
    pub fn satisfied_by(&self, attrs: &BTreeSet<Attribute>) -> bool {
        match self {
            AccessTree::Leaf(a) => attrs.contains(a),
            _ => {
                let (k, _) = self.gate();
                let sat = self
                    .children()
                    .iter()
                    .filter(|c| c.satisfied_by(attrs))
                    .count();
                sat >= k
            }
        }
    }

    /// All leaf attributes mentioned by the tree (deduplicated).
    pub fn leaves(&self) -> BTreeSet<Attribute> {
        let mut out = BTreeSet::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut BTreeSet<Attribute>) {
        match self {
            AccessTree::Leaf(a) => {
                out.insert(a.clone());
            }
            _ => {
                for c in self.children() {
                    c.collect_leaves(out);
                }
            }
        }
    }

    /// Number of leaf nodes (counting duplicates) — the quantity ABE
    /// encryption cost scales with (Fig. 18a).
    pub fn leaf_count(&self) -> usize {
        match self {
            AccessTree::Leaf(_) => 1,
            _ => self.children().iter().map(|c| c.leaf_count()).sum(),
        }
    }

    /// Compact policy string, for logs and tests.
    pub fn to_policy_string(&self) -> String {
        match self {
            AccessTree::Leaf(a) => a.0.clone(),
            AccessTree::And(c) => {
                let parts: Vec<_> = c.iter().map(|x| x.to_policy_string()).collect();
                format!("({})", parts.join(" and "))
            }
            AccessTree::Or(c) => {
                let parts: Vec<_> = c.iter().map(|x| x.to_policy_string()).collect();
                format!("({})", parts.join(" or "))
            }
            AccessTree::Threshold { k, children } => {
                let parts: Vec<_> = children.iter().map(|x| x.to_policy_string()).collect();
                format!("({k} of [{}])", parts.join(", "))
            }
        }
    }
}

/// Build an attribute set from string tokens.
pub fn attr_set(attrs: &[&str]) -> BTreeSet<Attribute> {
    attrs.iter().map(|a| Attribute::new(*a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §4.4 example policy.
    fn paper_policy() -> AccessTree {
        AccessTree::Or(vec![
            AccessTree::And(vec![
                AccessTree::leaf("role:ue"),
                AccessTree::leaf("supi:460011234"),
            ]),
            AccessTree::And(vec![
                AccessTree::leaf("role:satellite"),
                AccessTree::leaf("qos"),
                AccessTree::leaf("bw>=10g"),
            ]),
        ])
    }

    #[test]
    fn paper_example_satisfaction() {
        let p = paper_policy();
        // The UE itself.
        assert!(p.satisfied_by(&attr_set(&["role:ue", "supi:460011234"])));
        // An authorized satellite.
        assert!(p.satisfied_by(&attr_set(&["role:satellite", "qos", "bw>=10g"])));
        // A satellite without QoS support.
        assert!(!p.satisfied_by(&attr_set(&["role:satellite", "bw>=10g"])));
        // A different UE.
        assert!(!p.satisfied_by(&attr_set(&["role:ue", "supi:999"])));
        // Empty set.
        assert!(!p.satisfied_by(&BTreeSet::new()));
    }

    #[test]
    fn threshold_gate() {
        let t = AccessTree::Threshold {
            k: 2,
            children: vec![
                AccessTree::leaf("a"),
                AccessTree::leaf("b"),
                AccessTree::leaf("c"),
            ],
        };
        assert!(!t.satisfied_by(&attr_set(&["a"])));
        assert!(t.satisfied_by(&attr_set(&["a", "c"])));
        assert!(t.satisfied_by(&attr_set(&["a", "b", "c"])));
        assert_eq!(t.gate(), (2, 3));
    }

    #[test]
    fn leaves_and_counts() {
        let p = paper_policy();
        assert_eq!(p.leaf_count(), 5);
        let leaves = p.leaves();
        assert_eq!(leaves.len(), 5);
        assert!(leaves.contains(&Attribute::new("qos")));
    }

    #[test]
    fn monotonicity_superset_still_satisfies() {
        let p = paper_policy();
        assert!(p.satisfied_by(&attr_set(&[
            "role:satellite",
            "qos",
            "bw>=10g",
            "extra",
            "more-extra"
        ])));
    }

    #[test]
    fn policy_string_readable() {
        let s = paper_policy().to_policy_string();
        assert!(s.contains("role:satellite"), "{s}");
        assert!(s.contains(" or "), "{s}");
    }

    #[test]
    #[should_panic(expected = "AND gate with no children")]
    fn empty_and_panics() {
        AccessTree::And(vec![]).gate();
    }
}
