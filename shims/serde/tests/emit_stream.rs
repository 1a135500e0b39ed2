//! Every shape the shim serializes streams a pinned event sequence:
//! `emit` is the only serializer (`to_value` is built from it), so each
//! case spells out the exact events expected, and `to_value` must
//! rebuild the tree those events describe.

use serde::{Emitter, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One recorded [`Emitter`] event.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Unit,
    Bool(bool),
    Int(i128),
    /// Bit pattern, so NaN and -0.0 compare exactly.
    Float(u64),
    Str(String),
    Seq(usize),
    Map(usize),
    Key(String),
    End,
}

use Event::{End, Map, Seq, Unit as U};

fn int(i: i128) -> Event {
    Event::Int(i)
}

fn float(x: f64) -> Event {
    Event::Float(x.to_bits())
}

fn s(v: &str) -> Event {
    Event::Str(v.to_string())
}

fn key(k: &str) -> Event {
    Event::Key(k.to_string())
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl Emitter for Recorder {
    fn unit(&mut self) {
        self.0.push(Event::Unit);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(Event::Bool(v));
    }
    fn int(&mut self, v: i128) {
        self.0.push(Event::Int(v));
    }
    fn float(&mut self, v: f64) {
        self.0.push(Event::Float(v.to_bits()));
    }
    fn str(&mut self, v: &str) {
        self.0.push(Event::Str(v.to_string()));
    }
    fn seq(&mut self, len: usize) {
        self.0.push(Event::Seq(len));
    }
    fn map(&mut self, len: usize) {
        self.0.push(Event::Map(len));
    }
    fn key(&mut self, key: &str) {
        self.0.push(Event::Key(key.to_string()));
    }
    fn end(&mut self) {
        self.0.push(Event::End);
    }
}

/// The events `x` streams.
fn events<T: Serialize + ?Sized>(x: &T) -> Vec<Event> {
    let mut out = Recorder::default();
    x.emit(&mut out);
    out.0
}

/// Assert `x` streams exactly `expected`, and that `to_value` rebuilds
/// the tree whose replay is that same stream.
fn assert_emits<T: Serialize + ?Sized>(x: &T, expected: &[Event]) {
    assert_eq!(events(x), expected, "emitted events");
    assert_eq!(events(&x.to_value()), expected, "tree rebuilt by to_value");
}

#[derive(Serialize)]
struct Named {
    flag: bool,
    count: u32,
    big: u64,
    neg: i64,
    rate: f64,
    label: String,
}

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Pair(f64, String);

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
enum Shape {
    Empty,
    Newtype(u32),
    Tuple(u8, String, bool),
    Struct { x: f64, tags: Vec<String> },
}

#[derive(Serialize)]
struct Nested {
    shapes: Vec<Shape>,
    maybe: Option<Pair>,
    nothing: Option<Newtype>,
    boxed: Box<Newtype>,
    shared: Arc<Shape>,
    free_form: Value,
    unit: Unit,
}

fn named() -> Named {
    Named {
        flag: true,
        count: 42,
        big: u64::MAX,
        neg: i64::MIN,
        rate: -0.0,
        label: "hello world".into(),
    }
}

fn named_events() -> Vec<Event> {
    vec![
        Map(6),
        key("flag"),
        Event::Bool(true),
        key("count"),
        int(42),
        key("big"),
        int(u64::MAX.into()),
        key("neg"),
        int(i64::MIN.into()),
        key("rate"),
        float(-0.0),
        key("label"),
        s("hello world"),
        End,
    ]
}

#[test]
fn named_struct_emits_fields_in_declaration_order() {
    assert_emits(&named(), &named_events());
}

#[test]
fn newtype_tuple_and_unit_structs() {
    assert_emits(&Newtype(7), &[int(7)]);
    assert_emits(&Pair(1.5, "x".into()), &[Seq(2), float(1.5), s("x"), End]);
    assert_emits(&Unit, &[U]);
}

#[test]
fn all_four_enum_variant_shapes() {
    assert_emits(&Shape::Empty, &[s("Empty")]);
    assert_emits(&Shape::Newtype(3), &[Map(1), key("Newtype"), int(3), End]);
    assert_emits(
        &Shape::Tuple(9, "t".into(), false),
        &[
            Map(1),
            key("Tuple"),
            Seq(3),
            int(9),
            s("t"),
            Event::Bool(false),
            End,
            End,
        ],
    );
    assert_emits(
        &Shape::Struct {
            x: f64::NAN,
            tags: vec!["a".into(), "b".into()],
        },
        &[
            Map(1),
            key("Struct"),
            Map(2),
            key("x"),
            float(f64::NAN),
            key("tags"),
            Seq(2),
            s("a"),
            s("b"),
            End,
            End,
            End,
        ],
    );
}

#[test]
fn options_sequences_arrays_and_tuples() {
    assert_emits(&None::<u8>, &[U]);
    assert_emits(&Some(5u8), &[int(5)]);
    assert_emits(
        &Some(Some(vec![1.0f32, 2.5])),
        &[Seq(2), float(1.0), float(2.5), End],
    );
    // f32 widens exactly: 0.1f32 is not 0.1f64.
    assert_emits(&0.1f32, &[float(f64::from(0.1f32))]);
    assert_emits(&Vec::<String>::new(), &[Seq(0), End]);
    assert_emits(
        &vec![vec![1u64], vec![], vec![2, 3]],
        &[
            Seq(3),
            Seq(1),
            int(1),
            End,
            Seq(0),
            End,
            Seq(2),
            int(2),
            int(3),
            End,
            End,
        ],
    );
    assert_emits(&[0i32; 3], &[Seq(3), int(0), int(0), int(0), End]);
    assert_emits(
        &[[1u8, 2], [3, 4]],
        &[
            Seq(2),
            Seq(2),
            int(1),
            int(2),
            End,
            Seq(2),
            int(3),
            int(4),
            End,
            End,
        ],
    );
    assert_emits(&[1u8, 2][..], &[Seq(2), int(1), int(2), End]);
    assert_emits(&(1u8,), &[Seq(1), int(1), End]);
    assert_emits(
        &(1u8, "two".to_string(), 3.0f64, 'z'),
        &[Seq(4), int(1), s("two"), float(3.0), s("z"), End],
    );
    assert_emits(&'é', &[s("é")]);
    assert_emits("a str", &[s("a str")]);
    assert_emits(&i128::MIN, &[int(i128::MIN)]);
    assert_emits(&usize::MAX, &[int(usize::MAX as i128)]);
}

#[test]
fn maps_hash_sorted_and_btree_ordered() {
    let hashed: HashMap<String, u8> = ["zeta", "alpha", "mid", "beta"]
        .iter()
        .enumerate()
        .map(|(i, k)| (k.to_string(), i as u8))
        .collect();
    assert_emits(
        &hashed,
        &[
            Map(4),
            key("alpha"),
            int(1),
            key("beta"),
            int(3),
            key("mid"),
            int(2),
            key("zeta"),
            int(0),
            End,
        ],
    );
    let ordered: BTreeMap<String, Option<Vec<bool>>> =
        [("b".to_string(), Some(vec![true])), ("a".into(), None)]
            .into_iter()
            .collect();
    assert_emits(
        &ordered,
        &[
            Map(2),
            key("a"),
            U,
            key("b"),
            Seq(1),
            Event::Bool(true),
            End,
            End,
        ],
    );
    assert_emits(&HashMap::<String, f64>::new(), &[Map(0), End]);
}

#[test]
fn smart_pointers_references_and_nesting() {
    assert_emits(&Box::new(named()), &named_events());
    assert_emits(&Arc::new(Shape::Empty), &[s("Empty")]);
    assert_emits(&&named(), &named_events());
    let nested = Nested {
        shapes: vec![Shape::Empty, Shape::Newtype(1)],
        maybe: Some(Pair(0.5, "p".into())),
        nothing: None,
        boxed: Box::new(Newtype(2)),
        shared: Arc::new(Shape::Newtype(4)),
        free_form: Value::Map(vec![
            ("list".into(), Value::Seq(vec![Value::Int(1), Value::Unit])),
            ("on".into(), Value::Bool(true)),
        ]),
        unit: Unit,
    };
    assert_emits(
        &nested,
        &[
            Map(7),
            key("shapes"),
            Seq(2),
            s("Empty"),
            Map(1),
            key("Newtype"),
            int(1),
            End,
            End,
            key("maybe"),
            Seq(2),
            float(0.5),
            s("p"),
            End,
            key("nothing"),
            U,
            key("boxed"),
            int(2),
            key("shared"),
            Map(1),
            key("Newtype"),
            int(4),
            End,
            key("free_form"),
            Map(2),
            key("list"),
            Seq(2),
            int(1),
            U,
            End,
            key("on"),
            Event::Bool(true),
            End,
            key("unit"),
            U,
            End,
        ],
    );
}

#[test]
fn to_value_builds_the_tree_the_events_describe() {
    assert_eq!(
        Shape::Struct {
            x: 2.0,
            tags: vec!["t".into()],
        }
        .to_value(),
        Value::Map(vec![(
            "Struct".into(),
            Value::Map(vec![
                ("x".into(), Value::Float(2.0)),
                ("tags".into(), Value::Seq(vec![Value::Str("t".into())])),
            ]),
        )])
    );
    assert_eq!(Unit.to_value(), Value::Unit);
    assert_eq!(
        (Newtype(1), vec![Unit, Unit]).to_value(),
        Value::Seq(vec![
            Value::Int(1),
            Value::Seq(vec![Value::Unit, Value::Unit])
        ])
    );
    // Containers are sized exactly from their seq/map lengths.
    let Value::Seq(items) = vec![1u8; 5].to_value() else {
        panic!("a Vec serializes as a sequence");
    };
    assert_eq!(items.capacity(), 5);
}
