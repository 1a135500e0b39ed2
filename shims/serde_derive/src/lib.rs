//! Real (if minimal) stand-ins for serde's derive macros (see
//! `shims/README.md`).
//!
//! With no registry access there is no `syn`/`quote`, so this macro
//! hand-parses the item's [`TokenStream`] — just far enough to recover the
//! type name, field names, and variant shapes — and emits implementations
//! of the `serde` shim's traits as formatted source strings: `emit` for
//! `Serialize` (the trait builds `to_value` from it) and `from_value` for
//! `Deserialize`.
//!
//! Supported shapes (everything the workspace derives), as the
//! `serde::Value` tree they stream and read:
//!
//! - named-field structs → `Value::Map` in declaration order;
//! - newtype structs (`struct JobId(pub u32);`) → transparent inner value;
//! - other tuple structs → `Value::Seq`;
//! - unit structs → `Value::Unit`;
//! - enums with unit variants (`Value::Str(name)`), newtype variants
//!   (`{name: inner}`), tuple variants (`{name: [..]}`), and struct
//!   variants (`{name: {field: ..}}`) — serde's externally-tagged layout.
//!
//! Generic types are rejected with a `compile_error!`; none exist in the
//! workspace, and container impls live in the `serde` shim itself.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// `#[derive(Serialize)]`: implements `serde::Serialize::emit`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

/// `#[derive(Deserialize)]`: implements `serde::Deserialize::from_value`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => match which {
            Which::Serialize => gen_serialize(&item),
            Which::Deserialize => gen_deserialize(&item),
        },
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive shim generated invalid Rust")
}

// ---------------------------------------------------------------------------
// Item model + parser
// ---------------------------------------------------------------------------

/// The shape of one struct's or variant's payload.
enum Fields {
    /// `{ a: T, b: U }` — field names in declaration order.
    Named(Vec<String>),
    /// `( T, U )` — arity only.
    Tuple(usize),
    /// No payload.
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let kw = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err(format!("serde shim derive: expected name after `{kw}`")),
    };
    i += 1;
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic types ({name})"
        ));
    }
    match kw.as_str() {
        "struct" => {
            let fields = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                _ => return Err(format!("serde shim derive: malformed struct {name}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                _ => return Err(format!("serde shim derive: malformed enum {name}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!(
            "serde shim derive: cannot derive for `{other}` items"
        )),
    }
}

/// Advance past attributes (`#[...]`, which is how doc comments arrive)
/// and visibility (`pub`, `pub(crate)`, ...).
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match (toks.get(*i), toks.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                *i += 2;
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = next {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1;
                    }
                }
            }
            _ => return,
        }
    }
}

/// Skip a type (after `name:`) up to the next top-level comma. Only `<`/`>`
/// need depth tracking: parenthesized and bracketed type syntax arrives as
/// single `Group` tokens, so their inner commas are already hidden.
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(t) = toks.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                ',' if angle_depth == 0 => return,
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut names = Vec::new();
    loop {
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            None => return Ok(names),
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => {
                return Err(format!(
                    "serde shim derive: expected field name, found `{other}`"
                ))
            }
        };
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("serde shim derive: expected `:` after `{name}`")),
        }
        skip_type(&toks, &mut i);
        names.push(name);
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
}

/// Arity of a tuple struct/variant: one field per top-level comma-separated
/// chunk (visibility and attributes don't affect the count).
fn count_tuple_fields(body: TokenStream) -> usize {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_type(&toks, &mut i);
        count += 1;
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    count
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            None => return Ok(variants),
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => {
                return Err(format!(
                    "serde shim derive: expected variant name, found `{other}`"
                ))
            }
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= 3`) up to the variant comma.
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            skip_type(&toks, &mut i);
        }
        variants.push(Variant { name, fields });
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

/// Emit statements for named fields as one map; `expr_prefix` is `&self.`
/// for structs, empty for match bindings (already references). The
/// emitter is `__out`, so no field binding can shadow it.
fn emit_named(names: &[String], expr_prefix: &str) -> String {
    let entries: String = names
        .iter()
        .map(|n| format!("__out.key({n:?}); ::serde::Serialize::emit({expr_prefix}{n}, __out);"))
        .collect();
    format!("__out.map({}); {entries} __out.end();", names.len())
}

/// Emit statements for `exprs` as one sequence.
fn emit_seq(exprs: &[String]) -> String {
    let items: String = exprs
        .iter()
        .map(|e| format!("::serde::Serialize::emit({e}, __out);"))
        .collect();
    format!("__out.seq({}); {items} __out.end();", exprs.len())
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let emit = match fields {
                Fields::Named(names) => emit_named(names, "&self."),
                Fields::Tuple(1) => "::serde::Serialize::emit(&self.0, __out);".to_string(),
                Fields::Tuple(n) => {
                    emit_seq(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
                }
                Fields::Unit => "__out.unit();".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn emit(&self, __out: &mut dyn ::serde::Emitter) {{ {emit} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    // Data variants are single-entry maps around the payload.
                    let (pattern, payload) = match &v.fields {
                        Fields::Unit => {
                            return format!("{name}::{vn} => __out.str({vn:?}),");
                        }
                        Fields::Named(names) => (
                            format!("{{ {} }}", names.join(", ")),
                            emit_named(names, ""),
                        ),
                        Fields::Tuple(1) => (
                            "(f0)".to_string(),
                            "::serde::Serialize::emit(f0, __out);".to_string(),
                        ),
                        Fields::Tuple(n) => {
                            let bindings: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            (format!("({})", bindings.join(", ")), emit_seq(&bindings))
                        }
                    };
                    format!(
                        "{name}::{vn} {pattern} => {{ __out.map(1); __out.key({vn:?}); {payload} __out.end(); }}"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn emit(&self, __out: &mut dyn ::serde::Emitter) {{\n\
                         match self {{ {} }}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

/// Field initializers for named fields read out of a struct map binding
/// named `entries`; `ctx` prefixes error paths (e.g. the variant name).
fn de_named(names: &[String], ctx: &str) -> String {
    names
        .iter()
        .map(|n| {
            let path = if ctx.is_empty() {
                n.clone()
            } else {
                format!("{ctx}.{n}")
            };
            format!(
                "{n}: ::serde::Deserialize::from_value(::serde::de::struct_field(entries, {n:?}))\
                     .map_err(|e| e.context({path:?}))?,"
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn quoted_list(names: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    names
        .into_iter()
        .map(|n| format!("{:?}", n.as_ref()))
        .collect::<Vec<_>>()
        .join(", ")
}

fn gen_deserialize(item: &Item) -> String {
    let body = match item {
        Item::Struct { name, fields } => match fields {
            Fields::Named(names) => format!(
                "let entries = ::serde::de::as_struct_map(value, {name:?}, &[{keys}])?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}\n}})",
                keys = quoted_list(names),
                inits = de_named(names, ""),
            ),
            Fields::Tuple(1) => format!(
                "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))"
            ),
            Fields::Tuple(n) => {
                let inits: Vec<String> = (0..*n)
                    .map(|i| {
                        format!(
                            "::serde::Deserialize::from_value(&items[{i}])\
                                 .map_err(|e| e.context(\"[{i}]\"))?"
                        )
                    })
                    .collect();
                format!(
                    "let items = ::serde::de::as_tuple_seq(value, {name:?}, {n})?;\n\
                     ::std::result::Result::Ok({name}({}))",
                    inits.join(", ")
                )
            }
            Fields::Unit => format!(
                "match value {{\n\
                     ::serde::Value::Unit => ::std::result::Result::Ok({name}),\n\
                     other => ::std::result::Result::Err(::serde::DeError::mismatch(\"unit\", other)),\n\
                 }}"
            ),
        },
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}),"
                        ),
                        Fields::Named(names) => format!(
                            "{vn:?} => {{\n\
                                 let entries = ::serde::de::as_struct_map(payload, \"{name}::{vn}\", &[{keys}])\
                                     .map_err(|e| e.context({vn:?}))?;\n\
                                 ::std::result::Result::Ok({name}::{vn} {{\n{inits}\n}})\n\
                             }}",
                            keys = quoted_list(names),
                            inits = de_named(names, vn),
                        ),
                        Fields::Tuple(1) => format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                                 ::serde::Deserialize::from_value(payload)\
                                     .map_err(|e| e.context({vn:?}))?)),"
                        ),
                        Fields::Tuple(n) => {
                            let inits: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!(
                                        "::serde::Deserialize::from_value(&items[{i}])\
                                             .map_err(|e| e.context(\"{vn}[{i}]\"))?"
                                    )
                                })
                                .collect();
                            format!(
                                "{vn:?} => {{\n\
                                     let items = ::serde::de::as_tuple_seq(payload, \"{name}::{vn}\", {n})\
                                         .map_err(|e| e.context({vn:?}))?;\n\
                                     ::std::result::Result::Ok({name}::{vn}({}))\n\
                                 }}",
                                inits.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                // The `let _` keeps all-unit enums (which never read the
                // payload) warning-free.
                "let (variant, payload) = ::serde::de::enum_variant(value, {name:?})?;\n\
                 let _ = payload;\n\
                 match variant {{\n{arms}\n\
                     other => ::std::result::Result::Err(\
                         ::serde::de::unknown_variant({name:?}, other, &[{vars}])),\n\
                 }}",
                arms = arms.join("\n"),
                vars = quoted_list(variants.iter().map(|v| v.name.as_str())),
            )
        }
    };
    let name = match item {
        Item::Struct { name, .. } | Item::Enum { name, .. } => name,
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
