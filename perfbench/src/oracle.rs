//! Answer oracles written without `core::exec`: a breadth-first search
//! for `REACH` and a worklist Andersen solver for `POINTSTO`. Each
//! returns the expected answer relation as a set of rows.

use unchained_common::{
    FxHashMap as HashMap, FxHashSet as HashSet, Instance, Interner, Relation, Value,
};

/// Expected answer rows of arity 1 or 2, a unary row `v` stored as
/// `(v, v)`.
pub type Answer = HashSet<(Value, Value)>;

/// The key of a row of arity 1 or 2 in an [`Answer`].
fn key(row: &[Value]) -> (Value, Value) {
    (row[0], row[row.len() - 1])
}

fn rows<'a>(instance: &'a Instance, interner: &Interner, name: &str) -> Vec<&'a [Value]> {
    interner
        .get(name)
        .and_then(|s| instance.relation(s))
        .map(|r| r.iter().map(|t| t.values()).collect())
        .unwrap_or_default()
}

/// Whether `relation` holds exactly the rows of `expected`.
pub fn matches(relation: Option<&Relation>, expected: &Answer) -> bool {
    let Some(rel) = relation else {
        return expected.is_empty();
    };
    rel.len() == expected.len() && rel.iter().all(|t| expected.contains(&key(t.values())))
}

/// `R`: every node reachable along `G` from a node in `S`.
pub fn reach(input: &Instance, interner: &Interner) -> Answer {
    let mut succ: HashMap<Value, Vec<Value>> = HashMap::default();
    for row in rows(input, interner, "G") {
        succ.entry(row[0]).or_default().push(row[1]);
    }
    let mut seen: HashSet<Value> = HashSet::default();
    let mut queue: Vec<Value> = Vec::new();
    for row in rows(input, interner, "S") {
        if seen.insert(row[0]) {
            queue.push(row[0]);
        }
    }
    while let Some(x) = queue.pop() {
        for &y in succ.get(&x).map(Vec::as_slice).unwrap_or_default() {
            if seen.insert(y) {
                queue.push(y);
            }
        }
    }
    seen.into_iter().map(|v| (v, v)).collect()
}

/// `PT`: the least points-to relation closed under the four Andersen
/// constraints, solved over dense node ids with a worklist.
pub fn pointsto(input: &Instance, interner: &Interner) -> Answer {
    let mut ids: HashMap<Value, usize> = HashMap::default();
    let mut values: Vec<Value> = Vec::new();
    let mut id = |v: Value| {
        *ids.entry(v).or_insert_with(|| {
            values.push(v);
            values.len() - 1
        })
    };
    let pairs = |name: &str, id: &mut dyn FnMut(Value) -> usize| -> Vec<(usize, usize)> {
        rows(input, interner, name)
            .into_iter()
            .map(|r| (id(r[0]), id(r[1])))
            .collect()
    };
    let addr_of = pairs("AddrOf", &mut id);
    let assign = pairs("Assign", &mut id);
    let load = pairs("Load", &mut id);
    let store = pairs("Store", &mut id);
    let n = values.len();

    let mut pts: Vec<HashSet<usize>> = vec![HashSet::default(); n];
    // copy[a] = nodes b with pts(a) ⊆ pts(b).
    let mut copy: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges: HashSet<(usize, usize)> = HashSet::default();
    // loads[p] = v for Load(v,p); stores[p] = w for Store(p,w).
    let mut loads: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stores: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut queued = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    let push = |x: usize, queued: &mut Vec<bool>, work: &mut Vec<usize>| {
        if !queued[x] {
            queued[x] = true;
            work.push(x);
        }
    };
    for (v, o) in addr_of {
        pts[v].insert(o);
        push(v, &mut queued, &mut work);
    }
    for (v, w) in assign {
        if edges.insert((w, v)) {
            copy[w].push(v);
        }
    }
    for (v, p) in load {
        loads[p].push(v);
    }
    for (p, w) in store {
        stores[p].push(w);
    }

    // Copies pts(src) into pts(dst); true if dst grew.
    fn flow(pts: &mut [HashSet<usize>], src: usize, dst: usize) -> bool {
        if src == dst {
            return false;
        }
        let add: Vec<usize> = pts[src]
            .iter()
            .copied()
            .filter(|o| !pts[dst].contains(o))
            .collect();
        let grew = !add.is_empty();
        pts[dst].extend(add);
        grew
    }

    while let Some(x) = work.pop() {
        queued[x] = false;
        let targets: Vec<usize> = pts[x].iter().copied().collect();
        for &q in &targets {
            // Load(v,x), PT(x,q), PT(q,o) => PT(v,o): edge q -> v.
            for &v in &loads[x] {
                if edges.insert((q, v)) {
                    copy[q].push(v);
                    if flow(&mut pts, q, v) {
                        push(v, &mut queued, &mut work);
                    }
                }
            }
            // Store(x,w), PT(x,q), PT(w,o) => PT(q,o): edge w -> q.
            for &w in &stores[x] {
                if edges.insert((w, q)) {
                    copy[w].push(q);
                    if flow(&mut pts, w, q) {
                        push(q, &mut queued, &mut work);
                    }
                }
            }
        }
        for &y in &copy[x] {
            if flow(&mut pts, x, y) {
                push(y, &mut queued, &mut work);
            }
        }
    }

    let mut answer = Answer::default();
    for (v, set) in pts.iter().enumerate() {
        for &o in set {
            answer.insert((values[v], values[o]));
        }
    }
    answer
}
