//! Facade standing in for `serde` (see `shims/README.md`).
//!
//! Unlike the original no-op marker traits, this shim implements a real —
//! if deliberately small — serialization layer: [`Serialize`] streams a
//! value as [`Emitter`] events and [`Deserialize`] rebuilds it from the
//! self-describing [`Value`] tree, with `#[derive(Serialize, Deserialize)]`
//! (from the `serde_derive` shim) generating real field-level
//! implementations for structs, tuple/newtype structs, and enums. Text
//! formats (the TOML subset and JSON used by `pal-config`) read [`Value`]
//! trees and write from either an emitter or a tree, so every derived
//! type in the workspace can round-trip through a config file.
//!
//! ## Data model
//!
//! | Rust                       | [`Value`]                                 |
//! | -------------------------- | ----------------------------------------- |
//! | `bool`                     | `Bool`                                    |
//! | integers (`u8`…`i128`)     | `Int` (widened to `i128`)                 |
//! | `f32` / `f64`              | `Float`                                   |
//! | `String`                   | `Str`                                     |
//! | `Vec<T>`, `[T; N]`, tuples | `Seq`                                     |
//! | maps with `String` keys    | `Map` (ordered; `HashMap` sorts on write) |
//! | `Option<T>`                | inner value, or `Unit` for `None`         |
//! | named-field struct         | `Map` of field name → value               |
//! | newtype struct             | the inner value, transparently            |
//! | unit enum variant          | `Str(variant name)`                       |
//! | data enum variant          | `Map { variant name: payload }`           |
//!
//! [`Serialize::emit`] is the one serialization method: it streams the
//! events of a depth-first walk of this tree without building it, and
//! [`Serialize::to_value`] builds the tree from those same events.
//!
//! Struct deserialization is strict: unknown and duplicate keys are
//! errors (catching config typos), while a missing key reads as
//! [`Value::Unit`] so `Option` fields default to `None` and sequences
//! and maps default to empty.

pub use serde_derive::{Deserialize, Serialize};

pub mod de;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A self-describing serialized value — the interchange tree between
/// [`Serialize`]/[`Deserialize`] impls and text formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Nothing: `None`, a unit struct, or a missing struct field.
    Unit,
    /// A boolean.
    Bool(bool),
    /// Any integer, widened to `i128` so the full `u64` and `i64` ranges
    /// both fit losslessly.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (field order for derived structs).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Short name of this value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Look up `key` in a map value (`None` for absent keys and for
    /// non-map values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Structural equality up to map-entry ordering: maps are compared as
    /// key→value sets (recursively), everything else exactly. Text
    /// formats are free to reorder map entries (the TOML writer groups
    /// scalars before sub-tables), so format round-trips preserve values
    /// up to this relation.
    pub fn eq_unordered(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Seq(a), Value::Seq(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_unordered(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                if a.len() != b.len() {
                    return false;
                }
                let mut sa: Vec<_> = a.iter().collect();
                let mut sb: Vec<_> = b.iter().collect();
                sa.sort_by(|x, y| x.0.cmp(&y.0));
                sb.sort_by(|x, y| x.0.cmp(&y.0));
                sa.iter()
                    .zip(&sb)
                    .all(|(x, y)| x.0 == y.0 && x.1.eq_unordered(&y.1))
            }
            _ => self == other,
        }
    }
}

/// A deserialization failure: what was expected, what was found, and the
/// field path it happened under (outermost first).
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    message: String,
    path: Vec<String>,
}

impl DeError {
    /// A fresh error with no path context.
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
            path: Vec::new(),
        }
    }

    /// The expected/found mismatch error every primitive impl raises.
    pub fn mismatch(expected: &str, found: &Value) -> Self {
        DeError::new(format!("expected {expected}, found {}", found.kind()))
    }

    /// Prefix a path segment (a field or variant name) onto the error's
    /// location; derived impls call this as errors bubble up.
    pub fn context(mut self, segment: &str) -> Self {
        self.path.insert(0, segment.to_string());
        self
    }

    /// The bare message, without the path prefix.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The field path the error occurred under, dot-joined (empty at the
    /// top level).
    pub fn path(&self) -> String {
        self.path.join(".")
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.path.join("."), self.message)
        }
    }
}

impl std::error::Error for DeError {}

/// Receiver of a value's serialization events, in the order a
/// depth-first walk of its [`Value`] tree visits the nodes: one event per
/// scalar, and `seq`/`map` … `end` around a container's items (each map
/// item preceded by its `key`). [`Serialize::emit`] streams these events
/// without building the tree; [`emit_value`] replays a built tree.
pub trait Emitter {
    /// [`Value::Unit`].
    fn unit(&mut self);
    /// [`Value::Bool`].
    fn bool(&mut self, v: bool);
    /// [`Value::Int`].
    fn int(&mut self, v: i128);
    /// [`Value::Float`].
    fn float(&mut self, v: f64);
    /// [`Value::Str`].
    fn str(&mut self, v: &str);
    /// Open a [`Value::Seq`] of `len` items, closed by [`end`](Self::end).
    fn seq(&mut self, len: usize);
    /// Open a [`Value::Map`] of `len` entries, closed by [`end`](Self::end).
    fn map(&mut self, len: usize);
    /// The key of the map entry whose value comes next.
    fn key(&mut self, key: &str);
    /// Close the innermost open sequence or map.
    fn end(&mut self);
}

/// Emit the events of an already-built [`Value`] tree.
pub fn emit_value(value: &Value, out: &mut dyn Emitter) {
    match value {
        Value::Unit => out.unit(),
        Value::Bool(b) => out.bool(*b),
        Value::Int(i) => out.int(*i),
        Value::Float(x) => out.float(*x),
        Value::Str(s) => out.str(s),
        Value::Seq(items) => {
            out.seq(items.len());
            for item in items {
                emit_value(item, out);
            }
            out.end();
        }
        Value::Map(entries) => {
            out.map(entries.len());
            for (key, item) in entries {
                out.key(key);
                emit_value(item, out);
            }
            out.end();
        }
    }
}

/// Emit `items` as one sequence.
fn emit_seq<'a, T: Serialize + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    out: &mut dyn Emitter,
) {
    out.seq(items.len());
    for item in items {
        item.emit(out);
    }
    out.end();
}

/// Emit `entries` as one map, in the order given.
fn emit_map<'a, V: Serialize + 'a>(
    entries: impl ExactSizeIterator<Item = (&'a String, &'a V)>,
    out: &mut dyn Emitter,
) {
    out.map(entries.len());
    for (k, v) in entries {
        out.key(k);
        v.emit(out);
    }
    out.end();
}

/// Stream `self` as [`Emitter`] events, or lower it into a [`Value`] tree.
pub trait Serialize {
    /// Stream the events of `self`'s [`Value`] tree into `out` without
    /// building it. The only method an impl writes.
    fn emit(&self, out: &mut dyn Emitter);

    /// Serialize into the shim's self-describing value tree, built from
    /// [`emit`](Self::emit)'s events.
    fn to_value(&self) -> Value {
        let mut tree = TreeBuilder {
            open: Vec::new(),
            key: None,
            root: Value::Unit,
        };
        self.emit(&mut tree);
        tree.root
    }
}

/// The [`Emitter`] behind [`Serialize::to_value`]: assembles the tree
/// the events describe, sizing each container from its `seq`/`map` length.
struct TreeBuilder {
    /// The open containers, innermost last, each with the key it will
    /// sit under in its parent map.
    open: Vec<(Option<String>, Value)>,
    /// The key of the map entry whose value comes next.
    key: Option<String>,
    /// The finished top-level value.
    root: Value,
}

impl TreeBuilder {
    fn push(&mut self, value: Value) {
        match self.open.last_mut() {
            None => self.root = value,
            Some((_, Value::Seq(items))) => items.push(value),
            Some((_, Value::Map(entries))) => {
                let key = self.key.take().expect("map value emitted without a key");
                entries.push((key, value));
            }
            Some(_) => unreachable!("only sequences and maps are opened"),
        }
    }

    fn open(&mut self, container: Value) {
        let key = self.key.take();
        self.open.push((key, container));
    }
}

impl Emitter for TreeBuilder {
    fn unit(&mut self) {
        self.push(Value::Unit);
    }
    fn bool(&mut self, v: bool) {
        self.push(Value::Bool(v));
    }
    fn int(&mut self, v: i128) {
        self.push(Value::Int(v));
    }
    fn float(&mut self, v: f64) {
        self.push(Value::Float(v));
    }
    fn str(&mut self, v: &str) {
        self.push(Value::Str(v.to_string()));
    }
    fn seq(&mut self, len: usize) {
        self.open(Value::Seq(Vec::with_capacity(len)));
    }
    fn map(&mut self, len: usize) {
        self.open(Value::Map(Vec::with_capacity(len)));
    }
    fn key(&mut self, key: &str) {
        self.key = Some(key.to_string());
    }
    fn end(&mut self) {
        let (key, container) = self.open.pop().expect("end emitted with nothing open");
        self.key = key;
        self.push(container);
    }
}

/// Rebuild `Self` from a [`Value`] tree.
///
/// The `'de` lifetime mirrors upstream serde's signature so trait bounds
/// written against the real crate keep compiling; this shim always
/// deserializes from an owned tree.
pub trait Deserialize<'de>: Sized {
    /// Deserialize from the shim's self-describing value tree.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn emit(&self, out: &mut dyn Emitter) {
        out.bool(*self);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::mismatch("bool", other)),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn emit(&self, out: &mut dyn Emitter) {
                out.int(*self as i128);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        DeError::new(format!(
                            "integer {i} out of range for {}",
                            stringify!($t)
                        ))
                    }),
                    other => Err(DeError::mismatch("integer", other)),
                }
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for i128 {
    fn emit(&self, out: &mut dyn Emitter) {
        out.int(*self);
    }
}

impl<'de> Deserialize<'de> for i128 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Int(i) => Ok(*i),
            other => Err(DeError::mismatch("integer", other)),
        }
    }
}

impl Serialize for f64 {
    fn emit(&self, out: &mut dyn Emitter) {
        out.float(*self);
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Float(x) => Ok(*x),
            // Accept `rate = 3` where a float is expected — configs written
            // by hand routinely drop the trailing `.0`.
            Value::Int(i) => Ok(*i as f64),
            other => Err(DeError::mismatch("float", other)),
        }
    }
}

impl Serialize for f32 {
    fn emit(&self, out: &mut dyn Emitter) {
        out.float(f64::from(*self));
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        f64::from_value(value).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn emit(&self, out: &mut dyn Emitter) {
        out.str(self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::mismatch("string", other)),
        }
    }
}

impl Serialize for str {
    fn emit(&self, out: &mut dyn Emitter) {
        out.str(self);
    }
}

impl Serialize for char {
    fn emit(&self, out: &mut dyn Emitter) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            other => Err(DeError::mismatch("single-character string", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn emit(&self, out: &mut dyn Emitter) {
        emit_seq(self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Seq(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::from_value(v).map_err(|e| e.context(&format!("[{i}]"))))
                .collect(),
            // A missing struct field reads as Unit: sequences default to
            // empty, so optional lists need no `Option` wrapper.
            Value::Unit => Ok(Vec::new()),
            other => Err(DeError::mismatch("sequence", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn emit(&self, out: &mut dyn Emitter) {
        emit_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn emit(&self, out: &mut dyn Emitter) {
        emit_seq(self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = match value {
            Value::Seq(items) if items.len() == N => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::from_value(v).map_err(|e| e.context(&format!("[{i}]"))))
                .collect::<Result<_, _>>()?,
            Value::Seq(items) => {
                return Err(DeError::new(format!(
                    "expected sequence of length {N}, found length {}",
                    items.len()
                )))
            }
            other => return Err(DeError::mismatch("sequence", other)),
        };
        items
            .try_into()
            .map_err(|_| DeError::new("array length mismatch"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn emit(&self, out: &mut dyn Emitter) {
        match self {
            Some(v) => v.emit(out),
            None => out.unit(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Unit => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn emit(&self, out: &mut dyn Emitter) {
        (**self).emit(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn emit(&self, out: &mut dyn Emitter) {
        (**self).emit(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn emit(&self, out: &mut dyn Emitter) {
        (**self).emit(out);
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn emit(&self, out: &mut dyn Emitter) {
                out.seq([$($idx),+].len());
                $(self.$idx.emit(out);)+
                out.end();
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($idx),+].len();
                match value {
                    Value::Seq(items) if items.len() == LEN => Ok(($(
                        $name::from_value(&items[$idx])
                            .map_err(|e| e.context(&format!("[{}]", $idx)))?,
                    )+)),
                    Value::Seq(items) => Err(DeError::new(format!(
                        "expected tuple of length {LEN}, found sequence of length {}",
                        items.len()
                    ))),
                    other => Err(DeError::mismatch("tuple", other)),
                }
            }
        }
    )*};
}

tuple_impls! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    fn emit(&self, out: &mut dyn Emitter) {
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        emit_map(entries.into_iter(), out);
    }
}

impl<'de, V: Deserialize<'de>, S: std::hash::BuildHasher + Default> Deserialize<'de>
    for HashMap<String, V, S>
{
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.context(k))?)))
                .collect(),
            Value::Unit => Ok(HashMap::default()),
            other => Err(DeError::mismatch("map", other)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn emit(&self, out: &mut dyn Emitter) {
        emit_map(self.iter(), out);
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.context(k))?)))
                .collect(),
            Value::Unit => Ok(BTreeMap::new()),
            other => Err(DeError::mismatch("map", other)),
        }
    }
}

// `Value` itself round-trips as identity, so free-form config sections
// (registry parameter tables) can sit inside derived structs.
impl Serialize for Value {
    fn emit(&self, out: &mut dyn Emitter) {
        emit_value(self, out);
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}
