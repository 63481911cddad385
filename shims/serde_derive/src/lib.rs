//! Offline stand-in for `serde_derive`.
//!
//! The real crates.io `serde`/`serde_derive` are not vendored in this
//! repository (builds must work with no network), so this proc-macro crate
//! derives the value-tree `Serialize`/`Deserialize` traits defined by the
//! sibling `shims/serde` crate.  It parses the item token stream by hand —
//! no `syn`/`quote` — which is enough for the shapes this workspace uses:
//! named-field structs, tuple structs, unit structs, and enums whose
//! variants are unit, tuple, or struct-like.  Generic types are not
//! supported and produce a compile error.
//!
//! The generated representation mirrors serde_json's externally-tagged
//! default: structs become JSON objects, newtype structs are transparent,
//! unit enum variants become strings, and data-carrying variants become
//! single-key objects `{"Variant": ...}`.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

enum Body {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_item(input);
    gen_serialize(&name, &body)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_item(input);
    gen_deserialize(&name, &body)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> (String, Body) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Scan past attributes and visibility to the `struct`/`enum` keyword.
    let is_enum = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    i += 1;
                    break s == "enum";
                }
                i += 1; // `pub`, `crate`, ...
            }
            Some(_) => i += 1, // e.g. the group in `pub(crate)`
            None => panic!("derive: no struct/enum keyword found"),
        }
    };
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected type name, got {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("derive(Serialize/Deserialize) shim: generic type `{name}` is not supported");
        }
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if is_enum {
                Body::Enum(parse_variants(&inner))
            } else {
                Body::NamedStruct(parse_named_fields(&inner))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Body::TupleStruct(
            count_tuple_fields(&g.stream().into_iter().collect::<Vec<_>>()),
        ),
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
        other => panic!("derive: unexpected token after `{name}`: {other:?}"),
    };
    (name, body)
}

/// Extract field names from the tokens inside a brace group, skipping
/// attributes, visibility and type tokens (tracking `<`/`>` depth so commas
/// inside generic arguments don't split fields).
fn parse_named_fields(toks: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        if matches!(toks.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            i += 1;
            if matches!(toks.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => break,
        };
        i += 1; // past the name
        i += 1; // past the `:`
        fields.push(name);
        let mut depth = 0i32;
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

/// Count comma-separated fields in a tuple struct/variant body.
fn count_tuple_fields(toks: &[TokenTree]) -> usize {
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    count += 1;
                    trailing_comma = true;
                    continue;
                }
                _ => {}
            }
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(toks: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => break,
        };
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(
                    &g.stream().into_iter().collect::<Vec<_>>(),
                ))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Named(parse_named_fields(
                    &g.stream().into_iter().collect::<Vec<_>>(),
                ))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Skip to the comma separating variants (handles discriminants).
        while i < toks.len() {
            if matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    variants
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(name: &str, body: &Body) -> String {
    let mut f = String::new();
    let _ = write!(
        f,
        "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ "
    );
    match body {
        Body::NamedStruct(fields) => {
            f.push_str("let mut __m = ::serde::Map::new(); ");
            for fld in fields {
                let _ = write!(
                    f,
                    "__m.insert(::std::string::String::from(\"{fld}\"), ::serde::Serialize::to_value(&self.{fld})); "
                );
            }
            f.push_str("::serde::Value::Object(__m) ");
        }
        Body::TupleStruct(1) => {
            f.push_str("::serde::Serialize::to_value(&self.0) ");
        }
        Body::TupleStruct(n) => {
            f.push_str("::serde::Value::Array(::std::vec![");
            for k in 0..*n {
                let _ = write!(f, "::serde::Serialize::to_value(&self.{k}), ");
            }
            f.push_str("]) ");
        }
        Body::UnitStruct => {
            f.push_str("::serde::Value::Null ");
        }
        Body::Enum(variants) => {
            f.push_str("match self { ");
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(
                            f,
                            "{name}::{vn} => ::serde::Value::String(::std::string::String::from(\"{vn}\")), "
                        );
                    }
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let _ = write!(f, "{name}::{vn}({}) => {{ ", binders.join(", "));
                        if *n == 1 {
                            f.push_str("let __inner = ::serde::Serialize::to_value(__f0); ");
                        } else {
                            f.push_str("let __inner = ::serde::Value::Array(::std::vec![");
                            for b in &binders {
                                let _ = write!(f, "::serde::Serialize::to_value({b}), ");
                            }
                            f.push_str("]); ");
                        }
                        let _ = write!(
                            f,
                            "let mut __m = ::serde::Map::new(); __m.insert(::std::string::String::from(\"{vn}\"), __inner); ::serde::Value::Object(__m) }}, "
                        );
                    }
                    VariantKind::Named(fields) => {
                        let _ = write!(f, "{name}::{vn} {{ {} }} => {{ ", fields.join(", "));
                        f.push_str("let mut __inner = ::serde::Map::new(); ");
                        for fld in fields {
                            let _ = write!(
                                f,
                                "__inner.insert(::std::string::String::from(\"{fld}\"), ::serde::Serialize::to_value({fld})); "
                            );
                        }
                        let _ = write!(
                            f,
                            "let mut __m = ::serde::Map::new(); __m.insert(::std::string::String::from(\"{vn}\"), ::serde::Value::Object(__inner)); ::serde::Value::Object(__m) }}, "
                        );
                    }
                }
            }
            f.push_str("} ");
        }
    }
    f.push_str("} }");
    f
}

fn gen_deserialize(name: &str, body: &Body) -> String {
    let mut f = String::new();
    let _ = write!(
        f,
        "impl ::serde::Deserialize for {name} {{ fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ "
    );
    match body {
        Body::NamedStruct(fields) => {
            let _ = write!(
                f,
                "let __m = __v.as_object().ok_or_else(|| ::serde::Error::expected(\"object for {name}\"))?; "
            );
            let _ = write!(f, "::std::result::Result::Ok({name} {{ ");
            for fld in fields {
                let _ = write!(f, "{fld}: ::serde::de_field(__m, \"{fld}\")?, ");
            }
            f.push_str("}) ");
        }
        Body::TupleStruct(1) => {
            let _ = write!(
                f,
                "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?)) "
            );
        }
        Body::TupleStruct(n) => {
            let _ = write!(
                f,
                "let __a = __v.as_array().ok_or_else(|| ::serde::Error::expected(\"array for {name}\"))?; if __a.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::expected(\"{n}-element array for {name}\")); }} "
            );
            let _ = write!(f, "::std::result::Result::Ok({name}(");
            for k in 0..*n {
                let _ = write!(f, "::serde::Deserialize::from_value(&__a[{k}])?, ");
            }
            f.push_str(")) ");
        }
        Body::UnitStruct => {
            let _ = write!(f, "::std::result::Result::Ok({name}) ");
        }
        Body::Enum(variants) => {
            f.push_str("match __v { ");
            // Unit variants arrive as plain strings.
            f.push_str("::serde::Value::String(__s) => match __s.as_str() { ");
            for v in variants {
                if matches!(v.kind, VariantKind::Unit) {
                    let vn = &v.name;
                    let _ = write!(f, "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}), ");
                }
            }
            let _ = write!(
                f,
                "__other => ::std::result::Result::Err(::serde::Error::unknown_variant(__other, \"{name}\")), }}, "
            );
            // Data variants arrive as single-key objects.
            f.push_str("::serde::Value::Object(__m) if __m.len() == 1 => { let (__k, __inner) = __m.iter().next().expect(\"len checked\"); match __k.as_str() { ");
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {}
                    VariantKind::Tuple(1) => {
                        let _ = write!(
                            f,
                            "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_value(__inner)?)), "
                        );
                    }
                    VariantKind::Tuple(n) => {
                        let _ = write!(
                            f,
                            "\"{vn}\" => {{ let __a = __inner.as_array().ok_or_else(|| ::serde::Error::expected(\"array for {name}::{vn}\"))?; if __a.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::expected(\"{n}-element array for {name}::{vn}\")); }} ::std::result::Result::Ok({name}::{vn}("
                        );
                        for k in 0..*n {
                            let _ = write!(f, "::serde::Deserialize::from_value(&__a[{k}])?, ");
                        }
                        f.push_str(")) }, ");
                    }
                    VariantKind::Named(fields) => {
                        let _ = write!(
                            f,
                            "\"{vn}\" => {{ let __im = __inner.as_object().ok_or_else(|| ::serde::Error::expected(\"object for {name}::{vn}\"))?; ::std::result::Result::Ok({name}::{vn} {{ "
                        );
                        for fld in fields {
                            let _ = write!(f, "{fld}: ::serde::de_field(__im, \"{fld}\")?, ");
                        }
                        f.push_str("}) }, ");
                    }
                }
            }
            let _ = write!(
                f,
                "__other => ::std::result::Result::Err(::serde::Error::unknown_variant(__other, \"{name}\")), }} }}, "
            );
            let _ = write!(
                f,
                "_ => ::std::result::Result::Err(::serde::Error::expected(\"string or single-key object for {name}\")), }} "
            );
        }
    }
    f.push_str("} }");
    f
}
