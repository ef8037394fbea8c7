//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline
//! serde subset.
//!
//! The build environment has no crates.io access, so these macros are
//! written against `proc_macro` alone — no `syn`, no `quote`. A small
//! token-walker extracts the item shape (struct with named / tuple /
//! unit fields, or enum with unit / tuple / struct variants) and the
//! impls are emitted as formatted source strings. Generics are not
//! supported (nothing in the workspace derives on a generic type); the
//! `#[serde(default)]` and `#[serde(skip)]` field attributes are honored
//! on named fields.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct FieldDef {
    name: String,
    default: bool,
    /// Never serialized; deserialized as `Default::default()`.
    skip: bool,
}

/// The `#[serde(...)]` flags found on one field.
#[derive(Debug, Default)]
struct FieldAttrs {
    default: bool,
    skip: bool,
}

#[derive(Debug)]
enum Fields {
    Named(Vec<FieldDef>),
    Tuple(usize),
    Unit,
}

#[derive(Debug)]
struct VariantDef {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<VariantDef>,
    },
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => emit_serialize(&item)
            .parse()
            .expect("generated impl parses"),
        Err(msg) => error(&msg),
    }
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => emit_deserialize(&item)
            .parse()
            .expect("generated impl parses"),
        Err(msg) => error(&msg),
    }
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("literal parses")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i).map(|_| ())?;

    let keyword = ident_at(&tokens, i).ok_or("expected `struct` or `enum`")?;
    i += 1;
    let name = ident_at(&tokens, i).ok_or("expected item name")?;
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde compat derive: generic type `{name}` unsupported"
        ));
    }

    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    parse_named_fields(g.stream())?
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                _ => return Err("unsupported struct body".into()),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                _ => return Err("expected enum body".into()),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive serde traits for `{other}` items")),
    }
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Skip leading `#[...]` attributes and a `pub` / `pub(...)` visibility;
/// returns the `#[serde(default)]` / `#[serde(skip)]` flags among them.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Result<FieldAttrs, String> {
    let mut attrs = FieldAttrs::default();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                let group = match tokens.get(*i + 1) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
                    _ => return Err("malformed attribute".into()),
                };
                attrs.default |= serde_attr_has(group.stream(), "default");
                attrs.skip |= serde_attr_has(group.stream(), "skip");
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return Ok(attrs),
        }
    }
}

/// Whether `stream` (an attribute's bracket contents) is
/// `serde(..., flag, ...)`.
fn serde_attr_has(stream: TokenStream, flag: &str) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args)))
            if name.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == flag))
        }
        _ => false,
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Fields, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i).ok_or("expected field name")?;
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        skip_type_until_comma(&tokens, &mut i);
        fields.push(FieldDef {
            name,
            default: attrs.default,
            skip: attrs.skip,
        });
    }
    Ok(Fields::Named(fields))
}

/// Advance past a type, stopping after the field-separating comma (or at
/// end of stream). Tracks `<`/`>` nesting so commas inside generics
/// don't split fields.
fn skip_type_until_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut depth = 0i32;
    let mut saw_tokens_since_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                saw_tokens_since_comma = false;
                continue;
            }
            _ => {}
        }
        saw_tokens_since_comma = true;
    }
    if !saw_tokens_since_comma {
        count -= 1; // trailing comma
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<VariantDef>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        let name = ident_at(&tokens, i).ok_or("expected variant name")?;
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                parse_named_fields(g.stream())?
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        variants.push(VariantDef { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------
// Codegen: Serialize
// ---------------------------------------------------------------------

fn emit_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, serialize_struct_body(fields)),
        Item::Enum { name, variants } => (name, serialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn serialize_struct_body(fields: &Fields) -> String {
    match fields {
        Fields::Named(fs) => {
            let mut out = String::from("let mut m = ::serde::Map::new();\n");
            for f in fs.iter().filter(|f| !f.skip) {
                out.push_str(&format!(
                    "m.insert(::std::string::String::from({n:?}), \
                     ::serde::Serialize::to_value(&self.{n}));\n",
                    n = f.name
                ));
            }
            out.push_str("::serde::Value::Object(m)");
            out
        }
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".into(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Fields::Unit => "::serde::Value::Null".into(),
    }
}

fn serialize_enum_body(name: &str, variants: &[VariantDef]) -> String {
    let mut arms = String::new();
    for v in variants {
        let tag = &v.name;
        match &v.fields {
            Fields::Unit => arms.push_str(&format!(
                "{name}::{tag} => ::serde::Value::String(::std::string::String::from({tag:?})),\n"
            )),
            Fields::Tuple(n) => {
                let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                let payload = if *n == 1 {
                    "::serde::Serialize::to_value(f0)".to_string()
                } else {
                    let items: Vec<String> = binders
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                };
                arms.push_str(&format!(
                    "{name}::{tag}({binds}) => {{\n\
                         let mut m = ::serde::Map::new();\n\
                         m.insert(::std::string::String::from({tag:?}), {payload});\n\
                         ::serde::Value::Object(m)\n\
                     }}\n",
                    binds = binders.join(", ")
                ));
            }
            Fields::Named(fs) => {
                let binders: Vec<String> = fs
                    .iter()
                    .map(|f| match f.skip {
                        true => format!("{}: _", f.name),
                        false => f.name.clone(),
                    })
                    .collect();
                let mut inner = String::from("let mut inner = ::serde::Map::new();\n");
                for f in fs.iter().filter(|f| !f.skip) {
                    inner.push_str(&format!(
                        "inner.insert(::std::string::String::from({n:?}), \
                         ::serde::Serialize::to_value({n}));\n",
                        n = f.name
                    ));
                }
                arms.push_str(&format!(
                    "{name}::{tag} {{ {binds} }} => {{\n\
                         {inner}\
                         let mut m = ::serde::Map::new();\n\
                         m.insert(::std::string::String::from({tag:?}), ::serde::Value::Object(inner));\n\
                         ::serde::Value::Object(m)\n\
                     }}\n",
                    binds = binders.join(", ")
                ));
            }
        }
    }
    format!("match self {{\n{arms}}}")
}

// ---------------------------------------------------------------------
// Codegen: Deserialize
// ---------------------------------------------------------------------

fn emit_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, deserialize_struct_body(name, fields)),
        Item::Enum { name, variants } => (name, deserialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn named_fields_constructor(path: &str, fs: &[FieldDef], source: &str) -> String {
    let mut out = format!("::core::result::Result::Ok({path} {{\n");
    for f in fs {
        if f.skip {
            out.push_str(&format!(
                "{}: ::core::default::Default::default(),\n",
                f.name
            ));
            continue;
        }
        let missing = if f.default {
            "::core::default::Default::default()".to_string()
        } else {
            format!(
                "return ::core::result::Result::Err(::serde::Error::missing_field({:?}))",
                f.name
            )
        };
        out.push_str(&format!(
            "{n}: match {source}.get({n:?}) {{\n\
                 ::core::option::Option::Some(x) => ::serde::Deserialize::from_value(x)?,\n\
                 ::core::option::Option::None => {missing},\n\
             }},\n",
            n = f.name
        ));
    }
    out.push_str("})");
    out
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Named(fs) => format!(
            "let m = v.as_object().ok_or_else(|| ::serde::Error::expected(\"object\", v))?;\n{}",
            named_fields_constructor(name, fs, "m")
        ),
        Fields::Tuple(1) => {
            format!("::core::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Fields::Tuple(n) => {
            let mut out = format!(
                "let a = v.as_array().ok_or_else(|| ::serde::Error::expected(\"array\", v))?;\n\
                 if a.len() != {n} {{\n\
                     return ::core::result::Result::Err(::serde::Error::custom(\
                         format!(\"expected {n} elements, got {{}}\", a.len())));\n\
                 }}\n\
                 ::core::result::Result::Ok({name}(",
            );
            for i in 0..*n {
                out.push_str(&format!("::serde::Deserialize::from_value(&a[{i}])?, "));
            }
            out.push_str("))");
            out
        }
        Fields::Unit => format!(
            "if v.is_null() {{ ::core::result::Result::Ok({name}) }} else {{\n\
                 ::core::result::Result::Err(::serde::Error::expected(\"null\", v))\n\
             }}"
        ),
    }
}

fn deserialize_enum_body(name: &str, variants: &[VariantDef]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let tag = &v.name;
        match &v.fields {
            Fields::Unit => unit_arms.push_str(&format!(
                "{tag:?} => ::core::result::Result::Ok({name}::{tag}),\n"
            )),
            Fields::Tuple(1) => tagged_arms.push_str(&format!(
                "{tag:?} => ::core::result::Result::Ok({name}::{tag}(\
                 ::serde::Deserialize::from_value(val)?)),\n"
            )),
            Fields::Tuple(n) => {
                let mut arm = format!(
                    "{tag:?} => {{\n\
                         let a = val.as_array().ok_or_else(|| ::serde::Error::expected(\"array\", val))?;\n\
                         if a.len() != {n} {{\n\
                             return ::core::result::Result::Err(::serde::Error::custom(\
                                 format!(\"expected {n} elements, got {{}}\", a.len())));\n\
                         }}\n\
                         ::core::result::Result::Ok({name}::{tag}(",
                );
                for i in 0..*n {
                    arm.push_str(&format!("::serde::Deserialize::from_value(&a[{i}])?, "));
                }
                arm.push_str("))\n}\n");
                tagged_arms.push_str(&arm);
            }
            Fields::Named(fs) => {
                let ctor = named_fields_constructor(&format!("{name}::{tag}"), fs, "inner");
                tagged_arms.push_str(&format!(
                    "{tag:?} => {{\n\
                         let inner = val.as_object().ok_or_else(|| \
                             ::serde::Error::expected(\"object\", val))?;\n\
                         {ctor}\n\
                     }}\n"
                ));
            }
        }
    }
    format!(
        "match v {{\n\
             ::serde::Value::String(s) => match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::core::result::Result::Err(::serde::Error::custom(\
                     format!(\"unknown unit variant `{{other}}` for {name}\"))),\n\
             }},\n\
             ::serde::Value::Object(m) => {{\n\
                 let (tag, val) = m.single_entry().ok_or_else(|| ::serde::Error::custom(\
                     \"expected single-entry object for enum {name}\"))?;\n\
                 match tag {{\n\
                     {tagged_arms}\
                     other => ::core::result::Result::Err(::serde::Error::custom(\
                         format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                 }}\n\
             }}\n\
             other => ::core::result::Result::Err(::serde::Error::expected(\"enum value\", other)),\n\
         }}"
    )
}
