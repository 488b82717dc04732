//! Seeded request streams for the server workloads, and the answer model
//! the benchmark checks every reply against.
//!
//! Only this module writes query texts: the engine under test receives
//! nothing but the generated strings.

use std::collections::HashMap;
use xqdm::{NodeId, NodeKind, Store};

/// Persons in the hot key set; 80% of keys are drawn from it.
pub const HOT_PERSONS: usize = 32;
/// Share of keys drawn from the hot set (the rest are uniform).
const HOT_SHARE: f64 = 0.8;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// The six request shapes: three reads and three writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A person's name, found by `@id`.
    Lookup,
    /// How many closed auctions one person bought.
    Bought,
    /// A FLWOR over one person's children, returning their names.
    Children,
    /// Insert a `<watch>` under one person.
    WatchInsert,
    /// Replace one person's email text.
    EmailReplace,
    /// Insert a `<log>` into the shared `closed_auctions` container.
    LogInsert,
}

impl Shape {
    const READS: [Shape; 3] = [Shape::Lookup, Shape::Bought, Shape::Children];
    const WRITES: [Shape; 3] = [Shape::WatchInsert, Shape::EmailReplace, Shape::LogInsert];

    pub fn is_write(self) -> bool {
        Shape::WRITES.contains(&self)
    }
}

/// One generated request.
pub struct Request {
    pub shape: Shape,
    /// Person number `N` of the `personN` key.
    pub person: usize,
    /// Unique tag of a write (`s<session>-<k>`); empty for reads.
    pub tag: String,
    pub text: String,
}

/// The hot key set of a seed: the same for every session of a run.
pub fn hot_set(seed: u64, persons: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    (0..HOT_PERSONS).map(|_| rng.below(persons)).collect()
}

/// One session's request stream.
pub struct Stream {
    rng: Rng,
    hot: Vec<usize>,
    persons: usize,
    write_share: f64,
    session: usize,
    writes: u64,
}

impl Stream {
    pub fn new(seed: u64, session: usize, persons: usize, write_share: f64) -> Stream {
        Stream {
            rng: Rng::new(seed ^ ((session as u64 + 1) << 40)),
            hot: hot_set(seed, persons),
            persons,
            write_share,
            session,
            writes: 0,
        }
    }

    fn key(&mut self) -> usize {
        if self.rng.chance(HOT_SHARE) {
            self.hot[self.rng.below(self.hot.len())]
        } else {
            self.rng.below(self.persons)
        }
    }

    pub fn next_request(&mut self) -> Request {
        let write = self.write_share > 0.0 && self.rng.chance(self.write_share);
        let shape = if write {
            Shape::WRITES[self.rng.below(3)]
        } else {
            Shape::READS[self.rng.below(3)]
        };
        let person = self.key();
        let tag = if write {
            self.writes += 1;
            format!("s{}-{}", self.session, self.writes)
        } else {
            String::new()
        };
        let text = query_text(shape, person, &tag);
        Request {
            shape,
            person,
            tag,
            text,
        }
    }
}

const PERSON: &str = "$doc/site/people/person";

/// The query text of one request.
pub fn query_text(shape: Shape, n: usize, tag: &str) -> String {
    match shape {
        Shape::Lookup => format!("string({PERSON}[@id = \"person{n}\"]/name)"),
        Shape::Bought => format!(
            "count($doc/site/closed_auctions/closed_auction[buyer/@person = \"person{n}\"])"
        ),
        Shape::Children => {
            format!("for $c in {PERSON}[@id = \"person{n}\"]/* return name($c)")
        }
        Shape::WatchInsert => {
            format!("insert {{ <watch n=\"{tag}\"/> }} into {{ {PERSON}[@id = \"person{n}\"] }}")
        }
        Shape::EmailReplace => format!(
            "replace value of {{ {PERSON}[@id = \"person{n}\"]/emailaddress/text() }} \
             with {{ \"{}\" }}",
            written_email(n, tag)
        ),
        Shape::LogInsert => format!(
            "insert {{ <log n=\"{tag}\" person=\"person{n}\"/> }} \
             into {{ $doc/site/closed_auctions }}"
        ),
    }
}

/// The email an [`Shape::EmailReplace`] request writes.
pub fn written_email(n: usize, tag: &str) -> String {
    format!("mailto:person{n}.{tag}@bench.example")
}

/// What the generated document says about one person.
pub struct Person {
    pub name: String,
    pub email: String,
    /// Child element names, space-separated, in document order.
    pub children: String,
    /// Closed auctions whose buyer is this person.
    pub bought: u64,
    /// Item references across those auctions.
    pub bought_itemrefs: u64,
}

/// The answer model, read from the freshly generated store through the
/// data model's accessors (never through the query engine).
pub struct Model {
    pub persons: Vec<Person>,
}

fn element_name(store: &Store, n: NodeId) -> Option<String> {
    match store.kind(n).ok()? {
        NodeKind::Element { .. } => store.name(n).ok()?.map(|q| q.local),
        _ => None,
    }
}

fn child_elements(store: &Store, n: NodeId) -> Result<Vec<(String, NodeId)>, String> {
    let mut out = Vec::new();
    for &c in store.children(n).map_err(|e| e.to_string())? {
        if let Some(name) = element_name(store, c) {
            out.push((name, c));
        }
    }
    Ok(out)
}

fn child(store: &Store, n: NodeId, name: &str) -> Result<NodeId, String> {
    child_elements(store, n)?
        .into_iter()
        .find(|(c, _)| c == name)
        .map(|(_, id)| id)
        .ok_or_else(|| format!("missing <{name}>"))
}

fn attr(store: &Store, n: NodeId, name: &str) -> Result<String, String> {
    let a = store
        .attribute_by_name(n, name)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("missing @{name}"))?;
    store.string_value(a).map_err(|e| e.to_string())
}

fn text(store: &Store, n: NodeId) -> Result<String, String> {
    store.string_value(n).map_err(|e| e.to_string())
}

/// The number `N` of an id `prefixN`.
fn id_number(id: &str, prefix: &str) -> Result<usize, String> {
    id.strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unexpected id {id:?}"))
}

impl Model {
    /// Read the model of the XMark document rooted at `doc`.
    pub fn from_store(store: &Store, doc: NodeId) -> Result<Model, String> {
        let site = child(store, doc, "site")?;
        let people = child(store, site, "people")?;
        let mut persons = Vec::new();
        for (i, (_, p)) in child_elements(store, people)?.into_iter().enumerate() {
            if id_number(&attr(store, p, "id")?, "person")? != i {
                return Err(format!("person {i} out of order"));
            }
            let kids = child_elements(store, p)?;
            persons.push(Person {
                name: text(store, child(store, p, "name")?)?,
                email: text(store, child(store, p, "emailaddress")?)?,
                children: kids
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join(" "),
                bought: 0,
                bought_itemrefs: 0,
            });
        }
        let closed = child(store, site, "closed_auctions")?;
        let auctions = child_elements(store, closed)?;
        for (_, ca) in &auctions {
            let buyer = attr(store, child(store, *ca, "buyer")?, "person")?;
            let n = id_number(&buyer, "person")?;
            let refs = child_elements(store, *ca)?
                .iter()
                .filter(|(name, _)| name == "itemref")
                .count() as u64;
            let p = persons
                .get_mut(n)
                .ok_or_else(|| format!("buyer {buyer} is no person"))?;
            p.bought += 1;
            p.bought_itemrefs += refs;
        }
        Ok(Model { persons })
    }

    /// Is `body` the right answer to read `req`? With `watches` set, the
    /// store may also hold up to that many `<watch>` children of the
    /// person, inserted by concurrent writers.
    pub fn read_is_correct(&self, req: &Request, body: &str, watches: Option<u32>) -> bool {
        let p = &self.persons[req.person];
        match req.shape {
            Shape::Lookup => body == p.name,
            Shape::Bought => body.parse::<u64>() == Ok(p.bought),
            Shape::Children => match watches {
                None => body == p.children,
                Some(max) => {
                    let mut seen = 0u32;
                    let base: Vec<&str> = body
                        .split(' ')
                        .filter(|n| {
                            let w = *n == "watch";
                            seen += u32::from(w);
                            !w
                        })
                        .collect();
                    base.join(" ") == p.children && seen <= max
                }
            },
            _ => false,
        }
    }
}

/// Elements of the final store state of a write workload, for the end
/// check: every `<watch>` by tag with its person, every `<log>` tag, and
/// each person's email.
pub struct FinalState {
    pub watches: HashMap<String, usize>,
    pub logs: Vec<String>,
    pub emails: Vec<String>,
}

impl FinalState {
    pub fn read(store: &Store, doc: NodeId) -> Result<FinalState, String> {
        let site = child(store, doc, "site")?;
        let people = child(store, site, "people")?;
        let mut watches = HashMap::new();
        let mut emails = Vec::new();
        for (i, (_, p)) in child_elements(store, people)?.into_iter().enumerate() {
            for (name, c) in child_elements(store, p)? {
                match name.as_str() {
                    "watch" if watches.insert(attr(store, c, "n")?, i).is_some() => {
                        return Err("a watch tag appears twice".into());
                    }
                    "emailaddress" => emails.push(text(store, c)?),
                    _ => {}
                }
            }
        }
        let closed = child(store, site, "closed_auctions")?;
        let mut logs = Vec::new();
        for (name, c) in child_elements(store, closed)? {
            if name == "log" {
                logs.push(attr(store, c, "n")?);
            }
        }
        Ok(FinalState {
            watches,
            logs,
            emails,
        })
    }
}
