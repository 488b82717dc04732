//! The dynamic semantics of XQuery! (paper §3.4 and Appendix B).
//!
//! The paper's judgment is
//!
//! ```text
//! store0; dynEnv ⊢ Expr ⇒ value; Δ; store1
//! ```
//!
//! Here the store is threaded as `&mut Store`, the environment as
//! `&mut DynEnv` (with balanced push/pop around binders), and Δ is kept on
//! the **stack of update lists** that §4.1 describes as the actual
//! implementation strategy: every update operator appends to the top list;
//! `snap` pushes a fresh list, evaluates its body, pops, and applies. The
//! recursion of `eval` *is* the paper's "stack-like behavior ... built into
//! the recursive machinery of the deduction process".
//!
//! Evaluation order is the **strict left-to-right order** the paper
//! specifies for a language with side effects (§2.4): every rule with two
//! sub-expressions evaluates the first before the second.

use crate::apply::apply_delta;
use crate::env::{DynEnv, Focus};
use crate::functions;
use crate::limits::{self, LimitGuard, Limits, TripKind};
use crate::obs;
use crate::planner::FunctionExecutor;
use crate::update::{Delta, UpdateRequest};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use xqdm::atomic::{arithmetic, negate, value_compare, Atomic, CompareOp};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::store::InsertAnchor;
use xqdm::{KernelTest, NodeId, NodeKind, QName, Scratch, Store, XdmError, XdmResult};
use xqsyn::ast::{Axis, NodeCompOp, NodeTest, Quantifier, SnapMode};
use xqsyn::core::{Core, CoreFunction, CoreInsertLoc, CoreName, CoreProgram};

/// Stack size for the evaluation thread. User functions may recurse, and
/// a runaway recursion should surface as an error (`XQB0040`), not a stack
/// overflow: the configurable depth limit ([`Limits::max_depth`], default
/// [`limits::DEFAULT_MAX_DEPTH`]) counts `eval` nesting, and
/// [`Evaluator::eval_program`] / [`Evaluator::eval_query`] run on a
/// dedicated thread whose stack comfortably fits the default depth even
/// with debug-build frame sizes. Raising the limit far beyond the default
/// needs a correspondingly larger stack.
const EVAL_STACK_BYTES: usize = 64 << 20;

/// Run `f` on a scoped thread with a large stack, so deep (but bounded)
/// query recursion cannot overflow a small caller stack — the 2 MiB default
/// of test threads in particular.
fn with_eval_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("xquery-eval".into())
            .stack_size(EVAL_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("spawn evaluation thread")
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// Execution statistics for one evaluation (experiment instrumentation
/// and host diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Snap scopes closed (including the implicit top-level one).
    pub snaps_closed: u64,
    /// Update requests *emitted* (appended to some Δ). A semantic counter:
    /// identical across interpreted/compiled/parallel execution. On a
    /// successful run it equals [`EvalStats::requests_applied`] — every
    /// pending request is applied exactly once when its snap closes; the
    /// two diverge only on error paths, where open scopes discard their Δ.
    pub requests_emitted: u64,
    /// Update requests applied to the store.
    pub requests_applied: u64,
    /// Deepest simultaneous Δ-stack nesting observed.
    pub max_snap_depth: usize,
    /// Compiled plan nodes executed (0 under pure interpretation).
    pub plan_nodes_executed: u64,
    /// Hash-join / outer-join-group-by operators executed.
    pub joins_executed: u64,
    /// Effect-free regions that actually fanned out over worker threads.
    /// A *strategy* counter (like `plan_nodes_executed`): it varies with
    /// the thread setting and is excluded from determinism comparisons.
    pub par_regions: u64,
    /// Items evaluated inside those regions (strategy counter).
    pub par_items: u64,
    /// Batch path-step kernel invocations (strategy counter: 0 under
    /// pure interpretation).
    pub batch_steps: u64,
    /// Nodes produced by those kernel invocations, pre-dedup (strategy
    /// counter).
    pub batch_nodes: u64,
    /// Secondary-index scans the executor chose over a batch kernel
    /// (strategy counter; DESIGN.md §17).
    pub idx_scans: u64,
    /// Nodes those index scans emitted, post-containment-filter but
    /// pre-dedup (strategy counter).
    pub idx_hits: u64,
}

/// The evaluator: function table, globals, and the Δ stack.
pub struct Evaluator {
    functions: HashMap<(String, usize), CoreFunction>,
    globals: HashMap<String, Sequence>,
    delta_stack: Vec<Delta>,
    /// Per-snap seed counter for the nondeterministic application order.
    snap_counter: u64,
    base_seed: u64,
    depth: usize,
    stats: EvalStats,
    /// Hook running calls to functions whose bodies compiled to a plan
    /// (installed by a `CompiledProgram` for the duration of its run).
    function_executor: Option<Arc<dyn FunctionExecutor>>,
    /// Worker-thread budget for effect-free regions; 1 = sequential.
    threads: usize,
    /// Lazily computed effect analysis over the registered functions,
    /// backing the parallel gate. Invalidated when functions change.
    effects: Option<crate::effects::EffectAnalysis>,
    /// Observability state (trace spans, per-node profiling). `None` — the
    /// default — is the zero-cost-when-off fast path: every hook below is
    /// a single `Option` discriminant check.
    obs: Option<Box<EvalObs>>,
    /// Resource limits in force (DESIGN.md §12). `guard` is the armed
    /// runtime check, re-armed at each program-scope entry so fuel and
    /// deadline measure one run.
    limits: Limits,
    guard: LimitGuard,
    /// Reusable buffers for document-order sorting and the batch step
    /// kernels (DESIGN.md §14): one arena per evaluation, threaded into
    /// every `sort_and_dedup_with` call so steady-state path evaluation
    /// stops allocating.
    scratch: Scratch,
}

/// One open profiled plan node: enough to compute inclusive wall time and
/// the self-vs-children split of Δ emissions on exit.
struct NodeFrame {
    start: Instant,
    /// `stats.requests_emitted` at entry.
    emitted0: u64,
    /// Sum of the *inclusive* emissions of direct profiled children.
    child_emitted: u64,
    /// `stats.par_regions` / `stats.par_items` at entry.
    par_regions0: u64,
    par_items0: u64,
    /// `stats.batch_steps` / `stats.batch_nodes` at entry.
    batch_steps0: u64,
    batch_nodes0: u64,
    /// `stats.idx_scans` / `stats.idx_hits` at entry.
    idx_scans0: u64,
    idx_hits0: u64,
    /// Input cardinality reported via [`Evaluator::note_input`].
    input_rows: u64,
}

/// Trace + profiling state, boxed behind `Evaluator::obs` so the common
/// (observability off) case pays one pointer of space and one branch of
/// time.
struct EvalObs {
    /// Span sink plus the engine-level parent span id, when tracing.
    trace: Option<(Arc<obs::TraceSink>, Option<u64>)>,
    /// Open span ids, innermost last.
    span_stack: Vec<u64>,
    /// Per-node counters, when profiling (`explain_analyze`).
    profile: Option<obs::Profile>,
    /// Open profiled-node frames, innermost last.
    frames: Vec<NodeFrame>,
}

impl EvalObs {
    fn new() -> Box<EvalObs> {
        Box::new(EvalObs {
            trace: None,
            span_stack: Vec::new(),
            profile: None,
            frames: Vec::new(),
        })
    }
}

impl Evaluator {
    /// Build an evaluator for a program's function declarations.
    pub fn new(program: &CoreProgram) -> Self {
        let mut functions = HashMap::new();
        for f in &program.functions {
            functions.insert((f.name.clone(), f.params.len()), f.clone());
        }
        let limits = Limits::from_env();
        Evaluator {
            functions,
            globals: HashMap::new(),
            delta_stack: Vec::new(),
            snap_counter: 0,
            base_seed: 0x5eed,
            depth: 0,
            stats: EvalStats::default(),
            function_executor: None,
            threads: crate::par::threads_from_env(),
            effects: None,
            obs: None,
            limits,
            guard: LimitGuard::new(&limits),
            scratch: Scratch::new(),
        }
    }

    /// An evaluator with no user functions (for direct expression
    /// evaluation in tests and tools).
    pub fn bare() -> Self {
        let limits = Limits::from_env();
        Evaluator {
            functions: HashMap::new(),
            globals: HashMap::new(),
            delta_stack: Vec::new(),
            snap_counter: 0,
            base_seed: 0x5eed,
            depth: 0,
            stats: EvalStats::default(),
            function_executor: None,
            threads: crate::par::threads_from_env(),
            effects: None,
            obs: None,
            limits,
            guard: LimitGuard::new(&limits),
            scratch: Scratch::new(),
        }
    }

    /// Statistics accumulated since construction (snaps closed, requests
    /// applied, deepest snap nesting).
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Fix the seed driving nondeterministic-mode permutations.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set the worker-thread budget for effect-free regions (1 =
    /// sequential; clamped to [`crate::par::MAX_THREADS`]). The default
    /// comes from `XQB_THREADS` ([`crate::par::threads_from_env`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, crate::par::MAX_THREADS);
        self
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Install resource limits (DESIGN.md §12) and arm a fresh guard. The
    /// default comes from `XQB_MAX_DEPTH` / `XQB_FUEL` / `XQB_DEADLINE_MS`
    /// / `XQB_MEMORY_ITEMS` ([`Limits::from_env`]).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self.guard = LimitGuard::new(&limits);
        self
    }

    /// The resource limits in force.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The armed cooperative limit guard (shared with parallel workers).
    pub fn guard(&self) -> &LimitGuard {
        &self.guard
    }

    /// One cooperative limit check: a unit of fuel, a periodic deadline
    /// poll, and trip observation. Plan executors call this once per plan
    /// node; the interpreter once per `eval` step. A single branch when no
    /// fuel/deadline/memory limit is armed.
    #[inline]
    pub fn limit_tick(&self) -> XdmResult<()> {
        self.guard.tick()
    }

    /// The read-only context parallel workers evaluate under.
    pub fn pure_ctx(&self) -> crate::par::PureCtx<'_> {
        crate::par::PureCtx {
            functions: &self.functions,
            globals: &self.globals,
            guard: &self.guard,
            max_depth: self.limits.max_depth,
        }
    }

    /// The current `eval` nesting depth — parallel workers start their
    /// recursion counter here so the XQB0040 limit fires at the same
    /// nesting a sequential evaluation would report.
    pub fn nesting_depth(&self) -> usize {
        self.depth
    }

    /// Record one fanned-out region of `items` iterations.
    pub fn note_par_region(&mut self, items: usize) {
        self.stats.par_regions += 1;
        self.stats.par_items += items as u64;
    }

    /// The parallel gate: is fan-out enabled (threads ≥ 2) *and* is `body`
    /// provably safe to evaluate on workers sharing `&Store`? Consults the
    /// lazily-cached effect analysis over the registered functions; see
    /// [`crate::par::par_safe`] for the judgment itself.
    pub fn par_candidate(&mut self, body: &Core) -> bool {
        if self.threads < 2 {
            return false;
        }
        if self.effects.is_none() {
            self.effects = Some(crate::effects::EffectAnalysis::for_functions(
                self.functions.values(),
            ));
        }
        let analysis = self.effects.as_ref().expect("just computed");
        crate::par::par_safe(body, analysis, &self.functions)
    }

    /// Resume the per-snap seed counter from a previous evaluation. The
    /// engine persists the counter across runs so that two snaps — in the
    /// same run or in different runs of one engine — never reuse a
    /// nondeterministic application seed.
    pub fn with_snap_counter(mut self, counter: u64) -> Self {
        self.snap_counter = counter;
        self
    }

    /// The per-snap seed counter after the snaps closed so far (see
    /// [`Evaluator::with_snap_counter`]).
    pub fn snap_counter(&self) -> u64 {
        self.snap_counter
    }

    /// Define a global variable (module prolog or host binding).
    pub fn bind_global(&mut self, name: impl Into<String>, value: Sequence) {
        self.globals.insert(name.into(), value);
    }

    /// Read a global (used by tests and the engine facade).
    pub fn global(&self, name: &str) -> Option<&Sequence> {
        self.globals.get(name)
    }

    /// Register an additional function (e.g. from a host-loaded module).
    /// Does not override a same-name/arity function already present —
    /// program-local declarations take precedence over module ones.
    pub fn register_function(&mut self, func: CoreFunction) {
        // The function table feeds the parallel gate's effect analysis.
        self.effects = None;
        self.functions
            .entry((func.name.clone(), func.params.len()))
            .or_insert(func);
    }

    /// Evaluate a whole program: globals in order, then the body inside the
    /// **implicit top-level snap** (§2.3: "a snap is always implicitly
    /// present around the top-level query").
    pub fn eval_program(
        &mut self,
        store: &mut Store,
        program: &CoreProgram,
    ) -> XdmResult<Sequence> {
        self.run_in_program_scope(store, move |ev, store, env| {
            for (name, init) in &program.variables {
                let v = ev.eval(store, env, init)?;
                ev.globals.insert(name.clone(), v);
            }
            ev.eval(store, env, &program.body)
        })
    }

    /// Run `f` the way a whole program runs: on the dedicated big-stack
    /// thread, inside the implicit top-level snap (§2.3), whose Δ is
    /// applied in ordered mode with the next snap seed on success and
    /// discarded on error. This is the shared program-scope harness for
    /// both the interpreter ([`Evaluator::eval_program`]) and compiled
    /// plans (`xqalg`'s `CompiledProgram::execute`) — sharing it is what
    /// guarantees the two paths agree on stats, seeds, and Δ discipline.
    pub fn run_in_program_scope<F>(&mut self, store: &mut Store, f: F) -> XdmResult<Sequence>
    where
        F: FnOnce(&mut Evaluator, &mut Store, &mut DynEnv) -> XdmResult<Sequence> + Send,
    {
        // Re-arm the guard so fuel, memory, and the wall-clock deadline
        // measure this run alone (and a trip from a previous run on the
        // same evaluator does not leak into this one).
        self.guard = LimitGuard::new(&self.limits);
        with_eval_stack(move || {
            // The implicit snap also covers prolog variable initializers, so
            // side-effecting initializers behave like the body. It is not
            // counted toward max_snap_depth (only explicit snaps are).
            self.delta_stack.push(Delta::new());
            self.obs_span_begin("snap:implicit");
            let mut env = DynEnv::new();
            match f(&mut *self, store, &mut env) {
                Ok(value) => {
                    self.apply_snap_scope(store, SnapMode::Ordered)?;
                    Ok(value)
                }
                Err(e) => {
                    self.end_snap_scope();
                    Err(e)
                }
            }
        })
    }

    /// Evaluate one expression inside an implicit snap (convenience for
    /// query fragments).
    pub fn eval_query(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        expr: &Core,
    ) -> XdmResult<Sequence> {
        self.guard = LimitGuard::new(&self.limits);
        with_eval_stack(move || {
            self.delta_stack.push(Delta::new());
            self.obs_span_begin("snap:implicit");
            match self.eval(store, env, expr) {
                Ok(value) => {
                    self.apply_snap_scope(store, SnapMode::Ordered)?;
                    Ok(value)
                }
                Err(e) => {
                    self.end_snap_scope();
                    Err(e)
                }
            }
        })
    }

    /// Open a Δ scope (as `snap` does) without evaluating anything. For
    /// plan executors (`xqalg`) that drive `eval` directly and need a
    /// surrounding snapshot scope; pair with [`Evaluator::end_snap_scope`]
    /// or [`Evaluator::apply_snap_scope`]. Counts toward the max-snap-depth
    /// statistic exactly as an explicit `snap` does.
    pub fn begin_snap_scope(&mut self) {
        self.delta_stack.push(Delta::new());
        self.obs_span_begin("snap");
        self.stats.max_snap_depth = self.stats.max_snap_depth.max(self.delta_stack.len());
    }

    /// Close the scope opened by [`Evaluator::begin_snap_scope`], returning
    /// the collected Δ (not yet applied). Use on error paths, where the Δ
    /// is discarded without counting as a closed snap.
    pub fn end_snap_scope(&mut self) -> Delta {
        self.obs_span_end();
        self.delta_stack.pop().expect("unbalanced end_snap_scope")
    }

    /// Close the current Δ scope **and apply it** under `mode` with the
    /// next snap seed, updating the snap statistics — the exact tail of
    /// the `Core::Snap` evaluation rule. Compiled `Snap` plan nodes go
    /// through here so their seed draw and stats match interpretation.
    pub fn apply_snap_scope(&mut self, store: &mut Store, mode: SnapMode) -> XdmResult<()> {
        let delta = self.delta_stack.pop().expect("unbalanced apply_snap_scope");
        self.stats.snaps_closed += 1;
        self.stats.requests_applied += delta.len() as u64;
        let seed = self.next_seed();
        self.obs_span_begin("apply");
        let r = apply_delta(store, delta, mode, seed);
        self.obs_span_end(); // apply
        self.obs_span_end(); // the enclosing snap span
        r
    }

    /// Install (or clear) the hook that executes compiled function bodies.
    pub fn set_function_executor(&mut self, executor: Option<Arc<dyn FunctionExecutor>>) {
        self.function_executor = executor;
    }

    /// Enter a nested evaluation frame from outside `eval` (plan executors
    /// calling back into compiled function bodies), enforcing the same
    /// recursion limit. Pair with [`Evaluator::exit_nested`] on success.
    pub fn enter_nested(&mut self) -> XdmResult<()> {
        self.depth += 1;
        if self.depth > self.limits.max_depth {
            self.depth -= 1;
            self.guard.note_trip(TripKind::Depth);
            return Err(limits::depth_error(self.limits.max_depth));
        }
        Ok(())
    }

    /// Leave the frame entered by [`Evaluator::enter_nested`].
    pub fn exit_nested(&mut self) {
        self.depth -= 1;
    }

    /// Record the execution of one compiled plan node.
    pub fn note_plan_node(&mut self) {
        self.stats.plan_nodes_executed += 1;
    }

    /// Record the execution of one join operator.
    pub fn note_join(&mut self) {
        self.stats.joins_executed += 1;
    }

    /// Record one batch step-kernel invocation that produced `nodes`
    /// nodes (pre-dedup). Feeds both the run statistics and, when
    /// profiling, the innermost plan node's `batch=` counters.
    pub fn note_batch(&mut self, nodes: u64) {
        self.stats.batch_steps += 1;
        self.stats.batch_nodes += nodes;
    }

    /// Record one index-driven path step that emitted `hits` nodes
    /// (post-containment-filter, pre-dedup). Feeds both the run
    /// statistics and, when profiling, the innermost plan node's `idx=`
    /// counters.
    pub fn note_idx(&mut self, hits: u64) {
        self.stats.idx_scans += 1;
        self.stats.idx_hits += hits;
    }

    /// The evaluation's scratch arena (document-order sort workspace and
    /// batch-kernel buffers), for plan executors that call the store
    /// kernels directly.
    pub fn scratch_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    // ------------------------------------------------------------------
    // observability hooks (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Attach a trace sink: snap scopes evaluated from here on emit
    /// begin/end span events, parented under `parent` (typically the
    /// engine's per-run span).
    pub fn set_trace(&mut self, sink: Arc<obs::TraceSink>, parent: Option<u64>) {
        self.obs.get_or_insert_with(EvalObs::new).trace = Some((sink, parent));
    }

    /// Turn on per-plan-node profiling: [`Evaluator::node_enter`] /
    /// [`Evaluator::node_exit`] record into a fresh [`obs::Profile`],
    /// retrievable with [`Evaluator::take_profile`].
    pub fn enable_profiling(&mut self) {
        self.obs.get_or_insert_with(EvalObs::new).profile = Some(obs::Profile::default());
    }

    /// Is per-node profiling on? Plan executors check this once per node
    /// and skip the enter/exit bookkeeping entirely when it is off.
    pub fn profiling(&self) -> bool {
        self.obs.as_ref().is_some_and(|o| o.profile.is_some())
    }

    /// The profile recorded since [`Evaluator::enable_profiling`], if any.
    pub fn take_profile(&mut self) -> Option<obs::Profile> {
        self.obs.as_mut().and_then(|o| o.profile.take())
    }

    /// Open a profiled-node frame. Pair with [`Evaluator::node_exit`] on
    /// *every* path out of the node, success or error, or the self/child
    /// attribution of enclosing frames skews.
    pub fn node_enter(&mut self) {
        let emitted0 = self.stats.requests_emitted;
        let par_regions0 = self.stats.par_regions;
        let par_items0 = self.stats.par_items;
        let batch_steps0 = self.stats.batch_steps;
        let batch_nodes0 = self.stats.batch_nodes;
        let idx_scans0 = self.stats.idx_scans;
        let idx_hits0 = self.stats.idx_hits;
        if let Some(o) = self.obs.as_mut() {
            if o.profile.is_some() {
                o.frames.push(NodeFrame {
                    start: Instant::now(),
                    emitted0,
                    child_emitted: 0,
                    par_regions0,
                    par_items0,
                    batch_steps0,
                    batch_nodes0,
                    idx_scans0,
                    idx_hits0,
                    input_rows: 0,
                });
            }
        }
    }

    /// Report the input cardinality of the innermost open profiled node
    /// (loop source length, join outer length, condition rows).
    pub fn note_input(&mut self, rows: u64) {
        if let Some(o) = self.obs.as_mut() {
            if let Some(frame) = o.frames.last_mut() {
                frame.input_rows += rows;
            }
        }
    }

    /// Close the innermost profiled-node frame and record it under plan
    /// node `id`: one call, inclusive wall time, input/output cardinality,
    /// inclusive and self Δ emissions, and par attribution.
    pub fn node_exit(&mut self, id: usize, output_rows: u64) {
        let emitted_now = self.stats.requests_emitted;
        let par_regions_now = self.stats.par_regions;
        let par_items_now = self.stats.par_items;
        let batch_steps_now = self.stats.batch_steps;
        let batch_nodes_now = self.stats.batch_nodes;
        let idx_scans_now = self.stats.idx_scans;
        let idx_hits_now = self.stats.idx_hits;
        let Some(o) = self.obs.as_mut() else { return };
        let Some(frame) = o.frames.pop() else { return };
        let wall_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let delta_incl = emitted_now - frame.emitted0;
        let delta_self = delta_incl - frame.child_emitted;
        if let Some(parent) = o.frames.last_mut() {
            parent.child_emitted += delta_incl;
        }
        if let Some(profile) = o.profile.as_mut() {
            let n = profile.node_mut(id);
            n.calls += 1;
            n.wall_ns += wall_ns;
            n.input_rows += frame.input_rows;
            n.output_rows += output_rows;
            n.delta_incl += delta_incl;
            n.delta_self += delta_self;
            n.par_regions += par_regions_now - frame.par_regions0;
            n.par_items += par_items_now - frame.par_items0;
            n.batch_steps += batch_steps_now - frame.batch_steps0;
            n.batch_nodes += batch_nodes_now - frame.batch_nodes0;
            n.idx_scans += idx_scans_now - frame.idx_scans0;
            n.idx_hits += idx_hits_now - frame.idx_hits0;
        }
    }

    /// Begin a trace span (no-op without a sink). Balanced by
    /// [`Evaluator::obs_span_end`]; the snap-scope helpers below call these
    /// symmetrically, so the span stack mirrors the Δ stack.
    fn obs_span_begin(&mut self, name: &str) {
        if let Some(o) = self.obs.as_mut() {
            if let Some((sink, root)) = &o.trace {
                let parent = o.span_stack.last().copied().or(*root);
                let id = sink.begin(name, parent);
                o.span_stack.push(id);
            }
        }
    }

    /// End the innermost open trace span (no-op without a sink).
    fn obs_span_end(&mut self) {
        if let Some(o) = self.obs.as_mut() {
            if let Some((sink, _)) = &o.trace {
                if let Some(id) = o.span_stack.pop() {
                    sink.end(id);
                }
            }
        }
    }

    /// Draw the next per-snap seed (public so plan executors apply deltas
    /// with the same seed discipline as the evaluator itself).
    pub fn next_apply_seed(&mut self) -> u64 {
        self.next_seed()
    }

    fn next_seed(&mut self) -> u64 {
        self.snap_counter += 1;
        self.base_seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(self.snap_counter)
    }

    /// Append an update request to the innermost Δ — the single chokepoint
    /// for every update operator, so `requests_emitted` counts every
    /// request exactly once regardless of execution strategy.
    fn push_request(&mut self, req: UpdateRequest) -> XdmResult<()> {
        // Pending-update lists are the other unbounded buffer a runaway
        // query can grow; each entry costs one unit of memory budget.
        self.guard.charge(1)?;
        self.stats.requests_emitted += 1;
        self.delta_stack
            .last_mut()
            .expect("update evaluated outside any snap scope")
            .push(req);
        Ok(())
    }

    /// The core judgment. Left-to-right, store-threading, Δ-appending.
    pub fn eval(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        expr: &Core,
    ) -> XdmResult<Sequence> {
        self.depth += 1;
        if self.depth > self.limits.max_depth {
            self.depth -= 1;
            self.guard.note_trip(TripKind::Depth);
            return Err(limits::depth_error(self.limits.max_depth));
        }
        if let Err(e) = self.guard.tick() {
            self.depth -= 1;
            return Err(e);
        }
        let r = self.eval_inner(store, env, expr);
        self.depth -= 1;
        r
    }

    fn eval_inner(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        expr: &Core,
    ) -> XdmResult<Sequence> {
        match expr {
            Core::Const(a) => Ok(seq![Item::Atomic(a.clone())]),
            Core::Var(name) => match env.var(name) {
                Ok(v) => Ok(v.clone()),
                Err(e) => self.globals.get(name).cloned().ok_or(e),
            },
            Core::ContextItem => Ok(seq![env.focus()?.item.clone()]),
            // The paper's sequence rule: e1 fully evaluated before e2,
            // values and Δs concatenated in order.
            Core::Seq(items) => {
                let mut out = Sequence::new();
                for e in items {
                    let v = self.eval(store, env, e)?;
                    self.guard.charge(v.len() as u64)?;
                    out.extend(v);
                }
                Ok(out)
            }
            Core::For {
                var,
                position,
                source,
                body,
            } => {
                let src = self.eval(store, env, source)?;
                // Parallel fan-out for effect-free bodies (DESIGN.md §9):
                // the source was evaluated sequentially above (it may have
                // effects); the body runs on workers sharing `&Store` only
                // when the purity gate proves that indistinguishable.
                if src.len() >= crate::par::PAR_MIN_ITEMS && self.par_candidate(body) {
                    return self.par_for(store, env, var, position.as_deref(), &src, body);
                }
                let mut out = Sequence::new();
                for (i, it) in src.into_iter().enumerate() {
                    env.push_var(var.clone(), seq![it]);
                    if let Some(p) = position {
                        env.push_var(p.clone(), seq![Item::integer((i + 1) as i64)]);
                    }
                    let r = self.eval(store, env, body);
                    if position.is_some() {
                        env.pop_var();
                    }
                    env.pop_var();
                    let v = r?;
                    self.guard.charge(v.len() as u64)?;
                    out.extend(v);
                }
                Ok(out)
            }
            Core::Let { var, value, body } => {
                let v = self.eval(store, env, value)?;
                env.push_var(var.clone(), v);
                let r = self.eval(store, env, body);
                env.pop_var();
                r
            }
            Core::If(cond, then, els) => {
                let c = self.eval(store, env, cond)?;
                if item::effective_boolean(&c, store)? {
                    self.eval(store, env, then)
                } else {
                    self.eval(store, env, els)
                }
            }
            Core::Quantified {
                quantifier,
                var,
                source,
                satisfies,
            } => {
                let src = self.eval(store, env, source)?;
                let mut result = matches!(quantifier, Quantifier::Every);
                for it in src {
                    env.push_var(var.clone(), seq![it]);
                    let s = self.eval(store, env, satisfies);
                    env.pop_var();
                    let holds = item::effective_boolean(&s?, store)?;
                    match quantifier {
                        Quantifier::Some if holds => {
                            result = true;
                            break;
                        }
                        Quantifier::Every if !holds => {
                            result = false;
                            break;
                        }
                        _ => {}
                    }
                }
                Ok(seq![Item::boolean(result)])
            }
            Core::SortedFor {
                var,
                source,
                keys,
                body,
            } => {
                let src = self.eval(store, env, source)?;
                // Compute sort keys per binding (left-to-right, so key
                // expressions may have effects like any other expression).
                let mut keyed: Vec<(Vec<Option<Atomic>>, Item)> = Vec::with_capacity(src.len());
                for it in src {
                    env.push_var(var.clone(), seq![it.clone()]);
                    let mut ks = Vec::with_capacity(keys.len());
                    for k in keys {
                        let kv = self.eval(store, env, &k.key);
                        match kv {
                            Ok(kv) => {
                                let a = match item::zero_or_one(kv) {
                                    Ok(a) => a,
                                    Err(e) => {
                                        env.pop_var();
                                        return Err(e);
                                    }
                                };
                                let a = match a.map(|x| x.atomize(store)).transpose() {
                                    Ok(a) => a,
                                    Err(e) => {
                                        env.pop_var();
                                        return Err(e);
                                    }
                                };
                                ks.push(a);
                            }
                            Err(e) => {
                                env.pop_var();
                                return Err(e);
                            }
                        }
                    }
                    env.pop_var();
                    keyed.push((ks, it));
                }
                keyed.sort_by(|(ka, _), (kb, _)| {
                    for (i, (a, b)) in ka.iter().zip(kb).enumerate() {
                        let ord = cmp_keys(a, b);
                        let ord = if keys[i].ascending {
                            ord
                        } else {
                            ord.reverse()
                        };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                let mut out = Sequence::new();
                for (_, it) in keyed {
                    env.push_var(var.clone(), seq![it]);
                    let r = self.eval(store, env, body);
                    env.pop_var();
                    out.extend(r?);
                }
                Ok(out)
            }
            Core::Arith(op, l, r) => {
                let lv = self.eval(store, env, l)?;
                let rv = self.eval(store, env, r)?;
                let la = item::zero_or_one(lv)?
                    .map(|x| x.atomize(store))
                    .transpose()?;
                let ra = item::zero_or_one(rv)?
                    .map(|x| x.atomize(store))
                    .transpose()?;
                match (la, ra) {
                    (Some(a), Some(b)) => Ok(seq![Item::Atomic(arithmetic(*op, &a, &b)?)]),
                    _ => Ok(seq![]),
                }
            }
            Core::Neg(e) => {
                let v = self.eval(store, env, e)?;
                match item::zero_or_one(v)?
                    .map(|x| x.atomize(store))
                    .transpose()?
                {
                    Some(a) => Ok(seq![Item::Atomic(negate(&a)?)]),
                    None => Ok(seq![]),
                }
            }
            Core::GeneralComp(op, l, r) => {
                let lv = self.eval(store, env, l)?;
                let rv = self.eval(store, env, r)?;
                Ok(seq![Item::boolean(item::general_compare_seqs(
                    *op, &lv, &rv, store,
                )?)])
            }
            Core::ValueComp(op, l, r) => {
                let lv = self.eval(store, env, l)?;
                let rv = self.eval(store, env, r)?;
                let la = item::zero_or_one(lv)?
                    .map(|x| x.atomize(store))
                    .transpose()?;
                let ra = item::zero_or_one(rv)?
                    .map(|x| x.atomize(store))
                    .transpose()?;
                match (la, ra) {
                    (Some(a), Some(b)) => Ok(seq![Item::boolean(value_compare(*op, &a, &b)?)]),
                    _ => Ok(seq![]),
                }
            }
            Core::NodeComp(op, l, r) => {
                let lv = self.eval(store, env, l)?;
                let rv = self.eval(store, env, r)?;
                let ln = item::zero_or_one(lv)?;
                let rn = item::zero_or_one(rv)?;
                match (ln, rn) {
                    (Some(a), Some(b)) => {
                        let (a, b) = (require_node(a)?, require_node(b)?);
                        let res = match op {
                            NodeCompOp::Is => a == b,
                            NodeCompOp::Precedes => {
                                store.cmp_doc_order(a, b)? == std::cmp::Ordering::Less
                            }
                            NodeCompOp::Follows => {
                                store.cmp_doc_order(a, b)? == std::cmp::Ordering::Greater
                            }
                        };
                        Ok(seq![Item::boolean(res)])
                    }
                    _ => Ok(seq![]),
                }
            }
            Core::And(l, r) => {
                let lv = self.eval(store, env, l)?;
                if !item::effective_boolean(&lv, store)? {
                    return Ok(seq![Item::boolean(false)]);
                }
                let rv = self.eval(store, env, r)?;
                Ok(seq![Item::boolean(item::effective_boolean(&rv, store)?)])
            }
            Core::Or(l, r) => {
                let lv = self.eval(store, env, l)?;
                if item::effective_boolean(&lv, store)? {
                    return Ok(seq![Item::boolean(true)]);
                }
                let rv = self.eval(store, env, r)?;
                Ok(seq![Item::boolean(item::effective_boolean(&rv, store)?)])
            }
            Core::Union(l, r) => {
                let mut lv = self.eval(store, env, l)?;
                let rv = self.eval(store, env, r)?;
                lv.extend(rv);
                let mut nodes = item::all_nodes(&lv)?;
                store.sort_and_dedup_with(&mut nodes, &mut self.scratch)?;
                Ok(nodes.into_iter().map(Item::Node).collect())
            }
            Core::Range(l, r) => {
                let lv = self.eval(store, env, l)?;
                let rv = self.eval(store, env, r)?;
                let la = item::zero_or_one(lv)?
                    .map(|x| x.atomize(store))
                    .transpose()?;
                let ra = item::zero_or_one(rv)?
                    .map(|x| x.atomize(store))
                    .transpose()?;
                match (la, ra) {
                    (Some(a), Some(b)) => {
                        let (a, b) = (a.to_integer()?, b.to_integer()?);
                        // Pre-charge the span before materializing: `1 to
                        // 10000000000` must trip XQB0043, not exhaust RAM.
                        let span = b
                            .checked_sub(a)
                            .and_then(|d| d.checked_add(1))
                            .unwrap_or(i64::MAX)
                            .max(0) as u64;
                        self.guard.charge(span)?;
                        Ok((a..=b).map(Item::integer).collect())
                    }
                    _ => Ok(seq![]),
                }
            }
            Core::MapStep {
                base,
                axis,
                test,
                predicates,
            } => {
                let origins = self.eval(store, env, base)?;
                let mut out = Sequence::new();
                for origin in &origins {
                    let n = require_node(origin.clone())?;
                    let axis_nodes = gather_axis(store, n, *axis, test)?;
                    let mut items: Sequence = axis_nodes.into_iter().map(Item::Node).collect();
                    for pred in predicates {
                        items = self.filter_positional(store, env, items, pred)?;
                    }
                    out.extend(items);
                }
                let mut nodes = item::all_nodes(&out)?;
                store.sort_and_dedup_with(&mut nodes, &mut self.scratch)?;
                Ok(nodes.into_iter().map(Item::Node).collect())
            }
            Core::DocOrder(e) => {
                let v = self.eval(store, env, e)?;
                let mut nodes = item::all_nodes(&v)?;
                store.sort_and_dedup_with(&mut nodes, &mut self.scratch)?;
                Ok(nodes.into_iter().map(Item::Node).collect())
            }
            Core::Predicate { base, pred } => {
                let v = self.eval(store, env, base)?;
                self.filter_positional(store, env, v, pred)
            }
            Core::Call(name, args) => self.eval_call(store, env, name, args),
            Core::ElemCtor { name, content } => {
                let qname = self.eval_ctor_name(store, env, name)?;
                let content = self.eval(store, env, content)?;
                let node = construct_element(store, qname, &content)?;
                Ok(seq![Item::Node(node)])
            }
            Core::AttrCtor { name, content } => {
                let qname = self.eval_ctor_name(store, env, name)?;
                let v = self.eval(store, env, content)?;
                let parts: Vec<String> = item::atomize(&v, store)?
                    .into_iter()
                    .map(|a| a.string_value())
                    .collect();
                let attr = store.new_attribute(qname, parts.join(" "));
                Ok(seq![Item::Node(attr)])
            }
            Core::TextCtor(content) => {
                let v = self.eval(store, env, content)?;
                if v.is_empty() {
                    return Ok(seq![]);
                }
                let parts: Vec<String> = item::atomize(&v, store)?
                    .into_iter()
                    .map(|a| a.string_value())
                    .collect();
                let t = store.new_text(parts.join(" "));
                Ok(seq![Item::Node(t)])
            }
            Core::DocCtor(content) => {
                let v = self.eval(store, env, content)?;
                let doc = store.new_document();
                append_content(store, doc, &v, /*allow_attrs=*/ false)?;
                Ok(seq![Item::Node(doc)])
            }
            // ---------------- update operators (Appendix B) ----------------
            Core::Insert { .. }
            | Core::Delete(_)
            | Core::Replace(..)
            | Core::ReplaceValue(..)
            | Core::Rename(..) => self.eval_update(store, env, expr, |ev, store, env, i| {
                let operand = expr.update_operand(i).expect("update operand in range");
                ev.eval(store, env, operand)
            }),
            Core::Copy(e) => {
                let v = self.eval(store, env, e)?;
                let mut out = Sequence::with_capacity(v.len());
                for it in v {
                    out.push(match it {
                        Item::Node(n) => Item::Node(store.deep_copy(n)?),
                        atomic => atomic,
                    });
                }
                Ok(out)
            }
            Core::Snap(mode, body) => {
                // The snap rule: evaluate the body with a fresh Δ on top of
                // the stack, pop it, apply it. Nested snaps close first —
                // the recursion gives the paper's stack behavior for free.
                self.begin_snap_scope();
                match self.eval(store, env, body) {
                    Ok(value) => {
                        self.apply_snap_scope(store, *mode)?;
                        Ok(value)
                    }
                    Err(e) => {
                        self.end_snap_scope();
                        Err(e)
                    }
                }
            }
        }
    }

    /// The update rules (Appendix B), shared by the interpreter and the
    /// plan executor so they exist once. `update` is one of the five
    /// update forms; `operand(ev, store, env, i)` yields the value of its
    /// `i`-th operand ([`Core::update_operand`]) — the interpreter
    /// evaluates the operand expression, a compiled plan runs its operand
    /// sub-plan. Operands are requested lazily and strictly in the rules'
    /// order, so effects inside an operand (a closed snap) are visible to
    /// the operands after it, and a rule that fails between operands
    /// (`replace value of` on an element) never evaluates the rest.
    pub fn eval_update(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        update: &Core,
        mut operand: impl FnMut(&mut Evaluator, &mut Store, &mut DynEnv, usize) -> XdmResult<Sequence>,
    ) -> XdmResult<Sequence> {
        match update {
            Core::Insert { location, .. } => {
                // Rule order: Expr1 (source), then Expr2 (target), then the
                // InsertLocation judgment resolves (nodepar, nodepos).
                let src = operand(self, store, env, 0)?;
                let nodes = content_to_nodes(store, &src)?;
                let target = operand(self, store, env, 1)?;
                let t = item::exactly_one_node(target)?;
                let (parent, anchor) = resolve_insert_anchor(store, location, t)?;
                self.push_request(UpdateRequest::Insert {
                    nodes,
                    parent,
                    anchor,
                })?;
                Ok(seq![])
            }
            Core::Delete(_) => {
                let v = operand(self, store, env, 0)?;
                // The paper's rule shows a single node; its own §2.3 example
                // deletes a whole sequence ($log/logentry), so we accept a
                // node sequence and emit one request per node, in order.
                for n in item::all_nodes(&v)? {
                    self.push_request(UpdateRequest::Delete { node: n })?;
                }
                Ok(seq![])
            }
            Core::Replace(..) => {
                // Appendix B: Δ3 = (Δ1, Δ2, insert(nodeseq, nodepar, node),
                //                   delete(node))
                let tv = operand(self, store, env, 0)?;
                let node = item::exactly_one_node(tv)?;
                let wv = operand(self, store, env, 1)?;
                let nodeseq = content_to_nodes(store, &wv)?;
                let parent = store
                    .parent(node)?
                    .ok_or_else(|| XdmError::precondition("replace target has no parent"))?;
                if matches!(store.kind(node)?, NodeKind::Attribute { .. }) {
                    // Attribute targets: the replacement must be attribute
                    // nodes, attached to the owner element (attribute order
                    // is insignificant, so no anchor is involved). The
                    // delete precedes the attach so a same-named
                    // replacement does not trip the duplicate check.
                    for &n in &nodeseq {
                        if !matches!(store.kind(n)?, NodeKind::Attribute { .. }) {
                            return Err(XdmError::type_error(
                                "replacing an attribute requires attribute content",
                            ));
                        }
                    }
                    self.push_request(UpdateRequest::Delete { node })?;
                    self.push_request(UpdateRequest::InsertAttributes {
                        nodes: nodeseq,
                        element: parent,
                    })?;
                } else {
                    self.push_request(UpdateRequest::Insert {
                        nodes: nodeseq,
                        parent,
                        anchor: InsertAnchor::After(node),
                    })?;
                    self.push_request(UpdateRequest::Delete { node })?;
                }
                Ok(seq![])
            }
            Core::ReplaceValue(..) => {
                // One setValue request: the target node keeps its
                // identity, only its string value changes. The source is
                // atomized and space-joined like attribute content.
                let tv = operand(self, store, env, 0)?;
                let node = item::exactly_one_node(tv)?;
                match store.kind(node)? {
                    NodeKind::Text { .. } | NodeKind::Attribute { .. } => {}
                    // An update-family error (XQB0010 block), not a type
                    // error: the expression is well-typed, the target's
                    // node kind just has no settable value.
                    k => {
                        let k = k.kind_name();
                        return Err(XdmError::new(
                            "XQB0011",
                            format!(
                                "replace value of requires a text or attribute target, got a {k} node"
                            ),
                        ));
                    }
                }
                let wv = operand(self, store, env, 1)?;
                let parts: Vec<String> = item::atomize(&wv, store)?
                    .into_iter()
                    .map(|a| a.string_value())
                    .collect();
                self.push_request(UpdateRequest::SetValue {
                    node,
                    value: parts.join(" "),
                })?;
                Ok(seq![])
            }
            Core::Rename(..) => {
                let tv = operand(self, store, env, 0)?;
                let node = item::exactly_one_node(tv)?;
                let nv = operand(self, store, env, 1)?;
                let name_str = item::exactly_one(nv)?.string_value(store)?;
                let qname = QName::parse(&name_str).ok_or_else(|| {
                    XdmError::value("XQDY0074", format!("\"{name_str}\" is not a valid QName"))
                })?;
                self.push_request(UpdateRequest::Rename { node, name: qname })?;
                Ok(seq![])
            }
            _ => Err(XdmError::precondition("not an update expression")),
        }
    }

    /// Fan a pure `for` body out over the worker pool. Caller guarantees
    /// [`Evaluator::par_candidate`] admitted `body`. Values come back in
    /// input order ([`crate::par::par_map`]) and the first failing
    /// iteration's error wins ([`crate::par::merge_in_order`]) — exactly
    /// the sequential loop's observable behavior, since a pure body can
    /// leave no other trace.
    fn par_for(
        &mut self,
        store: &Store,
        env: &DynEnv,
        var: &str,
        position: Option<&str>,
        src: &[Item],
        body: &Core,
    ) -> XdmResult<Sequence> {
        self.note_par_region(src.len());
        let depth = self.depth;
        let threads = self.threads;
        let ctx = crate::par::PureCtx {
            functions: &self.functions,
            globals: &self.globals,
            guard: &self.guard,
            max_depth: self.limits.max_depth,
        };
        let results = crate::par::par_map(threads, env, src, |wenv, i, it| {
            wenv.push_var(var.to_string(), seq![it.clone()]);
            if let Some(p) = position {
                wenv.push_var(p.to_string(), seq![Item::integer((i + 1) as i64)]);
            }
            let r = crate::par::eval_pure(&ctx, store, wenv, depth, body);
            if position.is_some() {
                wenv.pop_var();
            }
            wenv.pop_var();
            r
        });
        crate::par::merge_in_order(results)
    }

    fn eval_call(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        name: &str,
        args: &[Core],
    ) -> XdmResult<Sequence> {
        // Arguments evaluate left to right (Appendix B's function rule),
        // regardless of whether the target is built-in or user-declared.
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(store, env, a)?);
        }
        if let Some(result) = functions::dispatch(name, values.clone(), store, env) {
            return result;
        }
        // Compiled function bodies run through the installed executor; a
        // miss hands the evaluated arguments back for interpretation.
        if let Some(executor) = self.function_executor.clone() {
            match executor.try_call(self, store, name, values) {
                Ok(result) => return result,
                Err(returned) => values = returned,
            }
        }
        let key = (name.to_string(), args.len());
        let func = match self.functions.get(&key) {
            Some(f) => f.clone(),
            None => {
                return Err(XdmError::new(
                    "XPST0017",
                    format!("undefined function {name}#{}", args.len()),
                ))
            }
        };
        // Function bodies see only their parameters and globals — build a
        // fresh environment rather than exposing the caller's locals.
        let mut fenv = DynEnv::new();
        for (p, v) in func.params.iter().zip(values) {
            fenv.push_var(p.clone(), v);
        }
        self.eval(store, &mut fenv, &func.body)
    }

    fn eval_ctor_name(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        name: &CoreName,
    ) -> XdmResult<QName> {
        let s = match name {
            CoreName::Fixed(s) => s.clone(),
            CoreName::Computed(e) => {
                let v = self.eval(store, env, e)?;
                item::exactly_one(v)?.string_value(store)?
            }
        };
        QName::parse(&s)
            .ok_or_else(|| XdmError::value("XQDY0074", format!("invalid QName \"{s}\"")))
    }

    /// Positional predicate filtering (XPath semantics): a numeric
    /// predicate value tests the context position; anything else is an
    /// effective-boolean-value test.
    fn filter_positional(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        items: Sequence,
        pred: &Core,
    ) -> XdmResult<Sequence> {
        // Fast path: a constant numeric predicate ([1], [2]...) needs no
        // per-item evaluation.
        if let Core::Const(a) = pred {
            if a.is_numeric() {
                let wanted = a.to_double()?;
                let idx = wanted as usize;
                if wanted.fract() == 0.0 && idx >= 1 && idx <= items.len() {
                    return Ok(seq![items[idx - 1].clone()]);
                }
                return Ok(seq![]);
            }
        }
        let size = items.len();
        let mut out = Sequence::new();
        for (i, it) in items.into_iter().enumerate() {
            env.push_focus(Focus {
                item: it.clone(),
                position: i + 1,
                size,
            });
            let v = self.eval(store, env, pred);
            env.pop_focus();
            let v = v?;
            let keep = match v.as_slice() {
                [Item::Atomic(a)] if a.is_numeric() => a.to_double()? == (i + 1) as f64,
                other => item::effective_boolean(other, store)?,
            };
            if keep {
                out.push(it);
            }
        }
        Ok(out)
    }
}

/// Turn an insert/replace source sequence into parentless nodes: node items
/// pass through (they are fresh copies — normalization wrapped the source
/// in `copy`), and atomic items become text nodes with adjacent atomics
/// space-joined, mirroring element-construction content semantics. The
/// paper's §2.5 counter relies on this: `replace {$d/text()} with {$d + 1}`
/// replaces a text node with the *number* `$d + 1`.
fn content_to_nodes(store: &mut Store, seq: &[Item]) -> XdmResult<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut acc: Vec<String> = Vec::new();
    for it in seq {
        match it {
            Item::Atomic(a) => acc.push(a.string_value()),
            Item::Node(n) => {
                if !acc.is_empty() {
                    out.push(store.new_text(acc.join(" ")));
                    acc.clear();
                }
                out.push(*n);
            }
        }
    }
    if !acc.is_empty() {
        out.push(store.new_text(acc.join(" ")));
    }
    Ok(out)
}

pub(crate) fn require_node(it: Item) -> XdmResult<NodeId> {
    it.as_node()
        .ok_or_else(|| XdmError::type_error("expected a node, got an atomic value"))
}

/// Compare order-by keys: the empty sequence sorts least ("empty least"
/// default); NaN sorts just above empty; otherwise value comparison.
pub(crate) fn cmp_keys(a: &Option<Atomic>, b: &Option<Atomic>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            if matches!(value_compare(CompareOp::Lt, x, y), Ok(true)) {
                Ordering::Less
            } else if matches!(value_compare(CompareOp::Gt, x, y), Ok(true)) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
    }
}

/// Resolve an insert location to the paper's `(nodepar, nodepos)` pair —
/// the "Insert Location Judgments" of Appendix B.
fn resolve_insert_anchor(
    store: &Store,
    location: &CoreInsertLoc,
    target: NodeId,
) -> XdmResult<(NodeId, InsertAnchor)> {
    match location {
        CoreInsertLoc::First(_) => Ok((target, InsertAnchor::First)),
        CoreInsertLoc::Last(_) => Ok((target, InsertAnchor::Last)),
        CoreInsertLoc::After(_) => {
            let parent = store
                .parent(target)?
                .ok_or_else(|| XdmError::precondition("\"after\" target has no parent"))?;
            Ok((parent, InsertAnchor::After(target)))
        }
        CoreInsertLoc::Before(_) => {
            let parent = store
                .parent(target)?
                .ok_or_else(|| XdmError::precondition("\"before\" target has no parent"))?;
            let children = store.children(parent)?;
            match children.iter().position(|&c| c == target) {
                Some(0) => Ok((parent, InsertAnchor::First)),
                Some(i) => Ok((parent, InsertAnchor::After(children[i - 1]))),
                None => Err(XdmError::precondition(
                    "\"before\" target is not a child of its parent",
                )),
            }
        }
    }
}

/// Gather the nodes of `axis` from `origin` that satisfy `test`, in axis
/// order (reverse axes deliver nearest-first, which is what positional
/// predicates count along).
pub fn gather_axis(
    store: &Store,
    origin: NodeId,
    axis: Axis,
    test: &NodeTest,
) -> XdmResult<Vec<NodeId>> {
    let mut out = Vec::new();
    // Resolve the test against the interner once per gather, not once per
    // node: the hot per-node check is then integer-only (no name
    // materialization, no string compare).
    let ktest = resolve_test(store, test);
    let principal_attr = axis == Axis::Attribute;
    let push = |store: &Store, n: NodeId, out: &mut Vec<NodeId>| -> XdmResult<()> {
        if store.kernel_matches(n, principal_attr, ktest)? {
            out.push(n);
        }
        Ok(())
    };
    match axis {
        Axis::Child => {
            for &c in store.children(origin)? {
                push(store, c, &mut out)?;
            }
        }
        Axis::Descendant => {
            for c in store.descendants(origin)? {
                push(store, c, &mut out)?;
            }
        }
        Axis::DescendantOrSelf => {
            push(store, origin, &mut out)?;
            for c in store.descendants(origin)? {
                push(store, c, &mut out)?;
            }
        }
        Axis::Attribute => {
            for &a in store.attributes(origin)? {
                push(store, a, &mut out)?;
            }
        }
        Axis::SelfAxis => push(store, origin, &mut out)?,
        Axis::Parent => {
            if let Some(p) = store.parent(origin)? {
                push(store, p, &mut out)?;
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            if axis == Axis::AncestorOrSelf {
                push(store, origin, &mut out)?;
            }
            let mut cur = store.parent(origin)?;
            while let Some(p) = cur {
                push(store, p, &mut out)?;
                cur = store.parent(p)?;
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            if let Some(p) = store.parent(origin)? {
                let children = store.children(p)?;
                if let Some(i) = children.iter().position(|&c| c == origin) {
                    if axis == Axis::FollowingSibling {
                        for &c in &children[i + 1..] {
                            push(store, c, &mut out)?;
                        }
                    } else {
                        for &c in children[..i].iter().rev() {
                            push(store, c, &mut out)?;
                        }
                    }
                }
            }
        }
        Axis::Following => {
            // Nodes strictly after origin in document order, excluding its
            // descendants: for each ancestor-or-self, the following
            // siblings with their subtrees, in document order.
            let mut cur = origin;
            while let Some(p) = store.parent(cur)? {
                let children = store.children(p)?.to_vec();
                if let Some(i) = children.iter().position(|&c| c == cur) {
                    for &sib in &children[i + 1..] {
                        push(store, sib, &mut out)?;
                        for d in store.descendants(sib)? {
                            push(store, d, &mut out)?;
                        }
                    }
                }
                cur = p;
            }
        }
        Axis::Preceding => {
            // Nodes strictly before origin in document order, excluding
            // ancestors: for each ancestor-or-self (nearest first), the
            // preceding siblings' subtrees in reverse document order.
            let mut cur = origin;
            while let Some(p) = store.parent(cur)? {
                let children = store.children(p)?.to_vec();
                if let Some(i) = children.iter().position(|&c| c == cur) {
                    for &sib in children[..i].iter().rev() {
                        // Reverse document order within the subtree: the
                        // subtree in document order is [sib, d1, ..., dn],
                        // so reversed it is [dn, ..., d1, sib].
                        let mut subtree = vec![sib];
                        subtree.extend(store.descendants(sib)?);
                        for &d in subtree.iter().rev() {
                            push(store, d, &mut out)?;
                        }
                    }
                }
                cur = p;
            }
        }
    }
    Ok(out)
}

/// Resolve a syntactic [`NodeTest`] to a [`KernelTest`] against `store`'s
/// interner. Valid only for that store; an interner miss on a name test
/// yields `Name(None)`, which matches nothing.
pub(crate) fn resolve_test(store: &Store, test: &NodeTest) -> KernelTest {
    match test {
        NodeTest::Name(wanted) => KernelTest::name(store.symbols(), wanted),
        NodeTest::Wildcard => KernelTest::Wildcard,
        NodeTest::Text => KernelTest::Text,
        NodeTest::AnyKind => KernelTest::AnyKind,
        NodeTest::Comment => KernelTest::Comment,
        NodeTest::Pi => KernelTest::Pi,
        NodeTest::Element => KernelTest::Element,
        NodeTest::AttributeTest => KernelTest::AttributeTest,
        NodeTest::Document => KernelTest::Document,
    }
}

/// XQuery 1.0 element-construction semantics for a content sequence:
/// attribute nodes (which must precede other content) are copied and
/// attached; nodes are deep-copied in; adjacent atomics become a single
/// space-separated text node.
fn construct_element(store: &mut Store, name: QName, content: &[Item]) -> XdmResult<NodeId> {
    let elem = store.new_element(name);
    append_content(store, elem, content, /*allow_attrs=*/ true)?;
    Ok(elem)
}

fn append_content(
    store: &mut Store,
    parent: NodeId,
    content: &[Item],
    allow_attrs: bool,
) -> XdmResult<()> {
    let mut text_acc: Vec<String> = Vec::new();
    let mut seen_content = false;
    let flush = |store: &mut Store, acc: &mut Vec<String>, seen: &mut bool| -> XdmResult<()> {
        if !acc.is_empty() {
            let t = store.new_text(acc.join(" "));
            store.append_child(parent, t)?;
            acc.clear();
            *seen = true;
        }
        Ok(())
    };
    for it in content {
        match it {
            Item::Atomic(a) => text_acc.push(a.string_value()),
            Item::Node(n) => {
                flush(store, &mut text_acc, &mut seen_content)?;
                match store.kind(*n)?.clone() {
                    NodeKind::Attribute { .. } => {
                        if !allow_attrs {
                            return Err(XdmError::type_error("attribute node in document content"));
                        }
                        if seen_content {
                            return Err(XdmError::new(
                                "XQTY0024",
                                "attribute constructor after non-attribute content",
                            ));
                        }
                        let copy = store.deep_copy(*n)?;
                        store.attach_attribute(parent, copy)?;
                    }
                    NodeKind::Document { children } => {
                        // A document node contributes its children.
                        for c in children {
                            let copy = store.deep_copy(c)?;
                            store.append_child(parent, copy)?;
                        }
                        seen_content = true;
                    }
                    _ => {
                        let copy = store.deep_copy(*n)?;
                        store.append_child(parent, copy)?;
                        seen_content = true;
                    }
                }
            }
        }
    }
    flush(store, &mut text_acc, &mut seen_content)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::ast::NodeTest;

    fn sample_tree() -> (Store, NodeId, Vec<NodeId>) {
        // <r><a/><b>t</b><c x="1"/></r>
        let mut s = Store::new();
        let r = s.new_element(QName::local("r"));
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("b"));
        let t = s.new_text("t");
        let c = s.new_element(QName::local("c"));
        let x = s.new_attribute(QName::local("x"), "1");
        s.append_child(b, t).unwrap();
        for n in [a, b, c] {
            s.append_child(r, n).unwrap();
        }
        s.attach_attribute(c, x).unwrap();
        (s, r, vec![a, b, t, c, x])
    }

    #[test]
    fn gather_axis_child_and_descendant() {
        let (s, r, ns) = sample_tree();
        let kids = gather_axis(&s, r, Axis::Child, &NodeTest::AnyKind).unwrap();
        assert_eq!(kids, vec![ns[0], ns[1], ns[3]]);
        let desc = gather_axis(&s, r, Axis::Descendant, &NodeTest::AnyKind).unwrap();
        assert_eq!(desc, vec![ns[0], ns[1], ns[2], ns[3]]);
        let texts = gather_axis(&s, r, Axis::Descendant, &NodeTest::Text).unwrap();
        assert_eq!(texts, vec![ns[2]]);
    }

    #[test]
    fn gather_axis_attribute_principal_kind() {
        let (s, _r, ns) = sample_tree();
        let c = ns[3];
        // Wildcard on the attribute axis matches attributes only.
        let attrs = gather_axis(&s, c, Axis::Attribute, &NodeTest::Wildcard).unwrap();
        assert_eq!(attrs, vec![ns[4]]);
        // Name test off the attribute axis does not match attributes.
        let none = gather_axis(&s, c, Axis::Child, &NodeTest::Name("x".into())).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn gather_axis_reverse_axes_nearest_first() {
        let (s, r, ns) = sample_tree();
        let t = ns[2];
        let anc = gather_axis(&s, t, Axis::Ancestor, &NodeTest::AnyKind).unwrap();
        assert_eq!(anc, vec![ns[1], r]);
        let prec = gather_axis(&s, ns[3], Axis::PrecedingSibling, &NodeTest::AnyKind).unwrap();
        assert_eq!(prec, vec![ns[1], ns[0]]);
        let foll = gather_axis(&s, ns[0], Axis::FollowingSibling, &NodeTest::AnyKind).unwrap();
        assert_eq!(foll, vec![ns[1], ns[3]]);
    }

    #[test]
    fn resolve_anchor_before_after() {
        let (s, r, ns) = sample_tree();
        let (a, b) = (ns[0], ns[1]);
        // before first child -> First.
        assert_eq!(
            resolve_insert_anchor(&s, &CoreInsertLoc::Before(Core::empty().boxed()), a).unwrap(),
            (r, InsertAnchor::First)
        );
        // before a later child -> After(previous sibling).
        assert_eq!(
            resolve_insert_anchor(&s, &CoreInsertLoc::Before(Core::empty().boxed()), b).unwrap(),
            (r, InsertAnchor::After(a))
        );
        assert_eq!(
            resolve_insert_anchor(&s, &CoreInsertLoc::After(Core::empty().boxed()), a).unwrap(),
            (r, InsertAnchor::After(a))
        );
        // before/after a parentless node fails.
        assert!(
            resolve_insert_anchor(&s, &CoreInsertLoc::Before(Core::empty().boxed()), r).is_err()
        );
    }

    #[test]
    fn content_to_nodes_joins_adjacent_atomics() {
        let mut s = Store::new();
        let e = s.new_element(QName::local("e"));
        let seq = vec![
            Item::integer(1),
            Item::string("two"),
            Item::Node(e),
            Item::integer(3),
        ];
        let nodes = content_to_nodes(&mut s, &seq).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(s.string_value(nodes[0]).unwrap(), "1 two");
        assert_eq!(nodes[1], e);
        assert_eq!(s.string_value(nodes[2]).unwrap(), "3");
    }

    #[test]
    fn snap_scope_api_balance() {
        let mut ev = Evaluator::bare();
        ev.begin_snap_scope();
        ev.begin_snap_scope();
        assert!(ev.end_snap_scope().is_empty());
        assert!(ev.end_snap_scope().is_empty());
    }

    #[test]
    fn cmp_keys_empty_least_and_nan() {
        use std::cmp::Ordering;
        assert_eq!(cmp_keys(&None, &Some(Atomic::Integer(1))), Ordering::Less);
        assert_eq!(cmp_keys(&None, &None), Ordering::Equal);
        assert_eq!(
            cmp_keys(&Some(Atomic::Integer(1)), &Some(Atomic::Integer(2))),
            Ordering::Less
        );
        // NaN compares "equal" to everything under value_compare, so the
        // sort treats it as tied (stable order preserved).
        assert_eq!(
            cmp_keys(&Some(Atomic::Double(f64::NAN)), &Some(Atomic::Integer(1))),
            Ordering::Equal
        );
    }
}
