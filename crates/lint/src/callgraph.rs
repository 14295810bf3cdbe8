//! The workspace call graph and its reachability queries.
//!
//! Nodes are the [`Symbols`] function list plus
//! one synthetic node per `spawn(...)` closure (thread roots). Edges come
//! from resolved call sites; each edge remembers the source line of its
//! call for findings that report a witness chain.
//!
//! Queries are plain BFS with a *blocked* set: a blocked node is neither
//! entered nor traversed through, which is how D11 expresses "every path
//! to a draw goes through the election entrypoint" (remove the entrypoint;
//! anything that still reaches a draw found another way in).

use crate::parser::{CallSite, ParsedFile};
use crate::symbols::{ResolveCtx, Symbols};

/// A synthetic node for a closure passed to `spawn(...)`.
#[derive(Debug, Clone)]
pub struct ClosureNode {
    /// File index in the workspace file list.
    pub file: usize,
    /// Enclosing function's node id.
    pub parent: usize,
    /// 1-based line of the `spawn` call.
    pub line: usize,
    /// Token range of the spawn arguments in the file.
    pub body: (usize, usize),
    /// Enclosing function is inside `#[cfg(test)]`.
    pub is_test: bool,
}

/// The call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[n]` = `(callee node, call line)` pairs, sorted and deduped.
    pub edges: Vec<Vec<(usize, usize)>>,
    /// Reverse adjacency (caller node, call line).
    pub redges: Vec<Vec<(usize, usize)>>,
    /// The edges whose call site lies outside every `catch_unwind(...)`
    /// argument list of its function: the calls a panic unwinds through.
    pub unguarded: Vec<Vec<(usize, usize)>>,
    /// Closure nodes; closure `k` is node `symbols.fns.len() + k`.
    pub closures: Vec<ClosureNode>,
}

impl CallGraph {
    /// Builds the graph from parsed files and their symbol table
    /// (`parsed[i]` must be the file `sym` indexed as file `i`).
    #[must_use]
    pub fn build(parsed: &[ParsedFile], sym: &Symbols) -> CallGraph {
        let nf = sym.fns.len();
        let mut closures = Vec::new();
        // Closure nodes first, so edge arrays can be sized once.
        for (node, fsym) in sym.fns.iter().enumerate() {
            let f = &parsed[fsym.file].fns[fsym.fn_idx];
            for sp in &f.spawns {
                closures.push(ClosureNode {
                    file: fsym.file,
                    parent: node,
                    line: sp.line,
                    body: sp.body,
                    is_test: f.is_test,
                });
            }
        }
        let n = nf + closures.len();
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut unguarded: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        // Links node `from` to the targets of `calls`, made in `owner`'s body.
        let mut link = |from: usize, owner: usize, calls: &[CallSite]| {
            let fsym = &sym.fns[owner];
            let p = &parsed[fsym.file];
            let guards = &p.fns[fsym.fn_idx].guards;
            let ctx = ResolveCtx {
                crate_name: &fsym.crate_name,
                owner: fsym.owner.as_deref(),
                uses: &p.uses,
            };
            for call in calls {
                let guarded = guards.iter().any(|&(s, e)| (s..e).contains(&call.tok));
                for target in sym.resolve(&call.callee, ctx) {
                    edges[from].push((target, call.line));
                    if !guarded {
                        unguarded[from].push((target, call.line));
                    }
                }
            }
        };
        for (node, fsym) in sym.fns.iter().enumerate() {
            link(node, node, &parsed[fsym.file].fns[fsym.fn_idx].calls);
        }
        // Closure edges: the subset of the parent's call sites that sit
        // inside the spawn range, plus bare function values (`spawn(worker)`).
        for (k, cl) in closures.iter().enumerate() {
            let p = &parsed[cl.file];
            link(
                nf + k,
                cl.parent,
                &crate::parser::calls_in_range(p, cl.body.0, cl.body.1, &[], true),
            );
        }
        for e in edges.iter_mut().chain(&mut unguarded) {
            e.sort_unstable();
            e.dedup();
        }
        let mut redges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (from, outs) in edges.iter().enumerate() {
            for &(to, line) in outs {
                redges[to].push((from, line));
            }
        }
        CallGraph { edges, redges, unguarded, closures }
    }

    /// Number of nodes (functions + closures).
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Forward BFS from `roots`, never entering or crossing `blocked`
    /// nodes. Returns `parent[n] = Some(predecessor)` for reached nodes
    /// (roots map to themselves).
    #[must_use]
    pub fn reach_forward(&self, roots: &[usize], blocked: &[bool]) -> Vec<Option<usize>> {
        self.bfs(roots, blocked, &self.edges)
    }

    /// [`CallGraph::reach_forward`] over the unguarded edges only: the
    /// call paths on which no `catch_unwind` contains a panic.
    #[must_use]
    pub fn reach_unguarded(&self, roots: &[usize], blocked: &[bool]) -> Vec<Option<usize>> {
        self.bfs(roots, blocked, &self.unguarded)
    }

    /// Backward BFS from `targets` over reverse edges, never crossing
    /// `blocked` nodes: `parent[n]` is set for every node that can reach a
    /// target, and points one step *toward* the target.
    #[must_use]
    pub fn reach_backward(&self, targets: &[usize], blocked: &[bool]) -> Vec<Option<usize>> {
        self.bfs(targets, blocked, &self.redges)
    }

    fn bfs(
        &self,
        starts: &[usize],
        blocked: &[bool],
        adj: &[Vec<(usize, usize)>],
    ) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in starts {
            if r < self.len() && !blocked.get(r).copied().unwrap_or(false) {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(at) = queue.pop_front() {
            for &(next, _) in &adj[at] {
                if parent[next].is_none() && !blocked.get(next).copied().unwrap_or(false) {
                    parent[next] = Some(at);
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// Walks `parent` pointers from `node` back to its root, rendering a
    /// `root → … → node` chain with `name(n)` labels (capped for sanity).
    #[must_use]
    pub fn chain(
        &self,
        parent: &[Option<usize>],
        node: usize,
        name: &dyn Fn(usize) -> String,
    ) -> String {
        let mut path = vec![node];
        let mut at = node;
        while let Some(prev) = parent[at] {
            if prev == at {
                break;
            }
            at = prev;
            path.push(at);
            if path.len() > 12 {
                break;
            }
        }
        path.reverse();
        let labels: Vec<String> = path.iter().map(|&n| name(n)).collect();
        labels.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    fn graph(sources: &[(&str, &str, &str)]) -> (Symbols, CallGraph) {
        let parsed: Vec<ParsedFile> =
            sources.iter().map(|(rel, _, src)| parser::parse(&lexer::scan(src), rel)).collect();
        let files: Vec<(String, String)> =
            sources.iter().map(|(rel, krate, _)| (rel.to_string(), krate.to_string())).collect();
        let sym = Symbols::build(&files, &parsed);
        let g = CallGraph::build(&parsed, &sym);
        (sym, g)
    }

    fn node(sym: &Symbols, name: &str) -> usize {
        sym.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn cycle_does_not_hang_reachability() {
        let (sym, g) = graph(&[(
            "crates/a/src/lib.rs",
            "apf-a",
            "fn a() { b(); }\nfn b() { a(); leaf(); }\nfn leaf() {}\n",
        )]);
        let blocked = vec![false; g.len()];
        let reach = g.reach_forward(&[node(&sym, "a")], &blocked);
        assert!(reach[node(&sym, "leaf")].is_some());
        assert!(reach[node(&sym, "b")].is_some());
    }

    #[test]
    fn blocking_cuts_paths() {
        let (sym, g) = graph(&[(
            "crates/a/src/lib.rs",
            "apf-a",
            "fn outside() { gate(); }\nfn gate() { draw(); }\nfn draw() {}\n",
        )]);
        let mut blocked = vec![false; g.len()];
        blocked[node(&sym, "gate")] = true;
        let back = g.reach_backward(&[node(&sym, "draw")], &blocked);
        assert!(back[node(&sym, "draw")].is_some());
        assert!(back[node(&sym, "outside")].is_none(), "gate was the only way in");
    }

    #[test]
    fn trait_object_edges_over_approximate() {
        // A call through `&dyn Sink` resolves to every impl of that method.
        let (sym, g) = graph(&[(
            "crates/a/src/lib.rs",
            "apf-a",
            "trait Sink { fn put(&self); }\nstruct X;\nimpl Sink for X { fn put(&self) {} }\n\
             struct Y;\nimpl Sink for Y { fn put(&self) {} }\n\
             fn drive(s: &dyn Sink) { s.put(); }\n",
        )]);
        let blocked = vec![false; g.len()];
        let reach = g.reach_forward(&[node(&sym, "drive")], &blocked);
        let impls: Vec<usize> = sym
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == "put" && f.qual != "Sink::put")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(impls.len(), 2);
        for i in impls {
            assert!(reach[i].is_some(), "dyn dispatch must fan out to every impl");
        }
    }

    #[test]
    fn spawn_closures_become_nodes_with_edges() {
        let (sym, g) = graph(&[(
            "crates/a/src/lib.rs",
            "apf-a",
            "fn worker_loop() { job(); }\nfn job() {}\n\
             fn run() { scope.spawn(|| worker_loop()); }\n",
        )]);
        assert_eq!(g.closures.len(), 1);
        let cl_node = sym.fns.len();
        let blocked = vec![false; g.len()];
        let reach = g.reach_forward(&[cl_node], &blocked);
        assert!(reach[node(&sym, "job")].is_some());
    }

    #[test]
    fn spawn_of_function_value_links() {
        let (sym, g) = graph(&[(
            "crates/a/src/lib.rs",
            "apf-a",
            "fn worker() { job(); }\nfn job() {}\nfn run() { thread::spawn(worker); }\n",
        )]);
        assert_eq!(g.closures.len(), 1);
        let blocked = vec![false; g.len()];
        let reach = g.reach_forward(&[sym.fns.len()], &blocked);
        assert!(reach[node(&sym, "job")].is_some());
    }

    #[test]
    fn chain_renders_a_witness_path() {
        let (sym, g) = graph(&[(
            "crates/a/src/lib.rs",
            "apf-a",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let blocked = vec![false; g.len()];
        let reach = g.reach_forward(&[node(&sym, "a")], &blocked);
        let label = |n: usize| sym.fns[n].name.clone();
        assert_eq!(g.chain(&reach, node(&sym, "c"), &label), "a → b → c");
    }
}
