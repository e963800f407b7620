//! Offline stand-in for `serde_derive`.
//!
//! The build environment for this repository has no access to crates.io, so
//! the real serde cannot be vendored. Nothing in the workspace actually
//! serializes through serde (all rendering is hand-written in
//! `ciflow_bench::report`), so the derive macros only need to emit
//! marker-trait impls that keep `#[derive(Serialize, Deserialize)]`
//! compiling. Swapping the real serde back in is a two-line change in the
//! workspace manifest.

use proc_macro::{TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    marker_impl(input, "Serialize")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    marker_impl(input, "Deserialize")
}

/// Emits `impl ::serde::<Trait> for <Type> {}` (with the type's generic
/// parameters splatted through unchanged, bounds included).
fn marker_impl(input: TokenStream, trait_name: &str) -> TokenStream {
    let (name, generics) = parse_type_header(input);
    let (params, args) = split_generics(&generics);
    format!("impl{params} ::serde::{trait_name} for {name}{args} {{}}")
        .parse()
        .expect("serde shim: generated impl must parse")
}

/// Finds the `struct`/`enum` keyword, the type name, and the raw generic
/// parameter tokens (if any) in the derive input.
fn parse_type_header(input: TokenStream) -> (String, Vec<TokenTree>) {
    let mut iter = input.into_iter().peekable();
    while let Some(tt) = iter.next() {
        let TokenTree::Ident(ident) = &tt else {
            continue;
        };
        let kw = ident.to_string();
        if kw != "struct" && kw != "enum" {
            continue;
        }
        let Some(TokenTree::Ident(name)) = iter.next() else {
            panic!("serde shim: expected a type name after `{kw}`");
        };
        let mut generics = Vec::new();
        if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            let mut depth = 0i32;
            for tt in iter.by_ref() {
                if let TokenTree::Punct(p) = &tt {
                    match p.as_char() {
                        '<' => depth += 1,
                        '>' => depth -= 1,
                        _ => {}
                    }
                }
                generics.push(tt);
                if depth == 0 {
                    break;
                }
            }
        }
        return (name.to_string(), generics);
    }
    panic!("serde shim: derive input contained no struct or enum");
}

/// Turns raw generic tokens `<'a, T: Bound>` into the impl-parameter string
/// (verbatim) and the bare argument string `<'a, T>` (bounds stripped).
fn split_generics(generics: &[TokenTree]) -> (String, String) {
    if generics.is_empty() {
        return (String::new(), String::new());
    }
    let params: String = generics.iter().map(|t| t.to_string() + " ").collect();
    // Strip bounds: keep everything outside `:`..(`,` or closing `>`).
    let mut args = String::from("<");
    let mut depth = 0i32;
    let mut in_bound = false;
    for tt in &generics[1..generics.len() - 1] {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ':' if depth == 0 => {
                    in_bound = true;
                    continue;
                }
                ',' if depth == 0 => {
                    in_bound = false;
                    args.push(',');
                    continue;
                }
                _ => {}
            }
        }
        if !in_bound {
            args.push_str(&tt.to_string());
            args.push(' ');
        }
    }
    args.push('>');
    (params, args)
}
