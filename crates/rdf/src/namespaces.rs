//! Namespace prefix handling.

use std::collections::HashMap;

use crate::term::RdfError;

pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
pub const RDF_FIRST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
pub const RDF_REST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
pub const RDF_NIL: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
pub use ssdm_array::XSD_DOUBLE;

/// A prefix → namespace-URI map with the ubiquitous W3C namespaces
/// pre-declared (rdf, rdfs, xsd, owl).
#[derive(Debug, Clone)]
pub struct Namespaces {
    map: HashMap<String, String>,
    base: Option<String>,
}

impl Default for Namespaces {
    fn default() -> Self {
        let mut map = HashMap::new();
        map.insert(
            "rdf".to_string(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#".to_string(),
        );
        map.insert(
            "rdfs".to_string(),
            "http://www.w3.org/2000/01/rdf-schema#".to_string(),
        );
        map.insert(
            "xsd".to_string(),
            "http://www.w3.org/2001/XMLSchema#".to_string(),
        );
        map.insert(
            "owl".to_string(),
            "http://www.w3.org/2002/07/owl#".to_string(),
        );
        Namespaces { map, base: None }
    }
}

impl Namespaces {
    pub fn new() -> Self {
        Namespaces::default()
    }

    pub fn declare(&mut self, prefix: impl Into<String>, uri: impl Into<String>) {
        self.map.insert(prefix.into(), uri.into());
    }

    pub fn set_base(&mut self, base: impl Into<String>) {
        self.base = Some(base.into());
    }

    pub fn base(&self) -> Option<&str> {
        self.base.as_deref()
    }

    /// Expand `prefix:local` into a full URI.
    pub fn expand(&self, prefix: &str, local: &str) -> Result<String, RdfError> {
        self.map
            .get(prefix)
            .map(|ns| format!("{ns}{local}"))
            .ok_or_else(|| RdfError::UnknownPrefix(prefix.to_string()))
    }

    /// Resolve a possibly-relative URI reference against the base.
    pub fn resolve(&self, uri: &str) -> String {
        if uri.contains("://") || self.base.is_none() {
            uri.to_string()
        } else {
            format!("{}{uri}", self.base.as_deref().unwrap())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_known_prefix() {
        let ns = Namespaces::new();
        assert_eq!(ns.expand("rdf", "type").unwrap(), RDF_TYPE);
    }

    #[test]
    fn expand_unknown_prefix_errors() {
        let ns = Namespaces::new();
        assert!(matches!(
            ns.expand("nope", "x"),
            Err(RdfError::UnknownPrefix(_))
        ));
    }

    #[test]
    fn declare_and_expand() {
        let mut ns = Namespaces::new();
        ns.declare("foaf", "http://xmlns.com/foaf/0.1/");
        assert_eq!(
            ns.expand("foaf", "name").unwrap(),
            "http://xmlns.com/foaf/0.1/name"
        );
    }

    #[test]
    fn base_resolution() {
        let mut ns = Namespaces::new();
        ns.set_base("http://example.org/");
        assert_eq!(ns.resolve("thing"), "http://example.org/thing");
        assert_eq!(ns.resolve("http://other.org/x"), "http://other.org/x");
    }
}
