//! The streaming path must agree with the tree path: for every shape the
//! shim serializes, `x.emit(..)` produces exactly the event sequence that
//! `emit_value(&x.to_value(), ..)` replays from the built tree.

use serde::{emit_value, Emitter, Serialize, Value};
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

/// Assert stream == tree for `x`, and return the streamed events.
fn events<T: Serialize + ?Sized>(x: &T) -> Vec<Event> {
    let mut streamed = Recorder::default();
    x.emit(&mut streamed);
    let mut replayed = Recorder::default();
    emit_value(&x.to_value(), &mut replayed);
    assert_eq!(streamed.0, replayed.0, "emit diverged from the value tree");
    streamed.0
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
    grid: [[u8; 2]; 3],
    pairs: Vec<(String, f32, char)>,
    by_name: HashMap<String, Vec<u16>>,
    ordered: BTreeMap<String, Option<i8>>,
    boxed: Box<Named>,
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

#[test]
fn named_struct_emits_fields_in_declaration_order() {
    let ev = events(&named());
    assert_eq!(ev[0], Event::Map(6));
    assert_eq!(ev[1], Event::Key("flag".into()));
    assert_eq!(ev[3], Event::Key("count".into()));
    assert_eq!(ev.last(), Some(&Event::End));
}

#[test]
fn newtype_tuple_and_unit_structs() {
    assert_eq!(events(&Newtype(7)), vec![Event::Int(7)]);
    assert_eq!(
        events(&Pair(1.5, "x".into())),
        vec![
            Event::Seq(2),
            Event::Float(1.5f64.to_bits()),
            Event::Str("x".into()),
            Event::End
        ]
    );
    assert_eq!(events(&Unit), vec![Event::Unit]);
}

#[test]
fn all_four_enum_variant_shapes() {
    assert_eq!(events(&Shape::Empty), vec![Event::Str("Empty".into())]);
    assert_eq!(
        events(&Shape::Newtype(3)),
        vec![
            Event::Map(1),
            Event::Key("Newtype".into()),
            Event::Int(3),
            Event::End
        ]
    );
    events(&Shape::Tuple(9, "t".into(), false));
    events(&Shape::Struct {
        x: f64::NAN,
        tags: vec!["a".into(), "b".into()],
    });
}

#[test]
fn options_sequences_arrays_and_tuples() {
    assert_eq!(events(&None::<u8>), vec![Event::Unit]);
    assert_eq!(events(&Some(5u8)), vec![Event::Int(5)]);
    events(&Some(Some(vec![1.0f32, 2.5])));
    events(&Vec::<String>::new());
    events(&vec![vec![1u64], vec![], vec![2, 3]]);
    events(&[0i32; 4]);
    events(&[1u8, 2, 3][..]);
    events(&(1u8,));
    events(&(1u8, "two".to_string(), 3.0f64, 'z'));
    events("a str");
    events(&i128::MIN);
    events(&usize::MAX);
}

#[test]
fn maps_hash_sorted_and_btree_ordered() {
    let hashed: HashMap<String, u8> = ["zeta", "alpha", "mid", "beta"]
        .iter()
        .enumerate()
        .map(|(i, k)| (k.to_string(), i as u8))
        .collect();
    let keys: Vec<Event> = events(&hashed)
        .into_iter()
        .filter(|e| matches!(e, Event::Key(_)))
        .collect();
    let sorted: Vec<Event> = ["alpha", "beta", "mid", "zeta"]
        .iter()
        .map(|k| Event::Key(k.to_string()))
        .collect();
    assert_eq!(keys, sorted, "HashMap must emit in sorted key order");
    let ordered: BTreeMap<String, Vec<bool>> =
        [("b".to_string(), vec![true]), ("a".into(), vec![])]
            .into_iter()
            .collect();
    events(&ordered);
    events(&HashMap::<String, f64>::new());
}

#[test]
fn smart_pointers_references_and_nesting() {
    events(&Box::new(named()));
    events(&Arc::new(Shape::Empty));
    events(&&named());
    let nested = Nested {
        shapes: vec![
            Shape::Empty,
            Shape::Newtype(1),
            Shape::Tuple(2, "two".into(), true),
            Shape::Struct {
                x: 3.0,
                tags: vec!["c".into()],
            },
        ],
        maybe: Some(Pair(0.5, "p".into())),
        nothing: None,
        grid: [[1, 2], [3, 4], [5, 6]],
        pairs: vec![("k".into(), 0.25, 'q')],
        by_name: [("y".to_string(), vec![1u16, 2]), ("x".into(), vec![])]
            .into_iter()
            .collect(),
        ordered: [("n".to_string(), None), ("s".into(), Some(-3i8))]
            .into_iter()
            .collect(),
        boxed: Box::new(named()),
        shared: Arc::new(Shape::Newtype(4)),
        free_form: Value::Map(vec![
            ("list".into(), Value::Seq(vec![Value::Int(1), Value::Unit])),
            ("on".into(), Value::Bool(true)),
        ]),
        unit: Unit,
    };
    let ev = events(&nested);
    assert_eq!(ev[0], Event::Map(11));
}
