package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockHold forbids blocking operations while a sync.Mutex/RWMutex is
// held, and requires a consistent two-lock acquisition order within each
// package. It is CFG-based: per function (and function literal) it computes,
// by forward may-analysis over the control-flow graph, the set of locks that
// may be held at every program point, then flags any blocking operation —
// channel send/receive, range over a channel, select without a default,
// WaitGroup.Wait, Cond.Wait, or a backend Forward* call — reachable with a
// non-empty held set. A blocked goroutine that holds a lock stalls every
// other goroutine contending for it: in the serving tier that turns bounded
// backpressure (a full inbox) into a deadlock (Close waiting on a lock a
// wedged Forward holds). Deferred unlocks keep the lock held to function
// exit, exactly as at runtime. Escape hatch: //pipelayer:allow-lockhold
// <reason>.
var AnalyzerLockHold = &Analyzer{
	Name: "lockhold",
	Doc: "forbid blocking operations (channel ops, select without default, WaitGroup.Wait, Cond.Wait, " +
		"backend Forward* calls) while a sync.Mutex/RWMutex is held, and require one consistent " +
		"two-lock acquisition order per package",
	Run: runLockHold,
}

// lockEvent is one lock-relevant operation inside a block, in source order.
type lockEvent struct {
	pos     token.Pos
	kind    lockEventKind
	key     string // canonical lock key (acquire/release) — "" for blocking ops
	display string // source text for diagnostics
	what    string // blocking-op description
}

type lockEventKind int

const (
	evAcquire lockEventKind = iota
	evRelease
	evBlocking
)

// lockOrderEdge records "b was acquired while a was held" for the
// package-wide acquisition-order consistency check.
type lockOrderEdge struct {
	held, acquired string
}

func runLockHold(pass *Pass) error {
	orderSites := make(map[lockOrderEdge]token.Pos)
	display := make(map[string]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lockHoldFunc(pass, fd.Body, orderSites, display)
			// Each function literal runs on its own goroutine's stack (or at
			// least its own activation): analyze its body independently.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lockHoldFunc(pass, lit.Body, orderSites, display)
				}
				return true
			})
		}
	}
	reportLockOrderCycles(pass, orderSites, display)
	return nil
}

// lockHoldFunc runs the may-held dataflow over one function body and reports
// blocking operations under a held lock plus the acquisition-order edges.
func lockHoldFunc(pass *Pass, body *ast.BlockStmt, orderSites map[lockOrderEdge]token.Pos, display map[string]string) {
	g := BuildCFG(body)
	events := make(map[*Block][]lockEvent)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			events[b] = append(events[b], collectLockEvents(pass, g, n)...)
		}
		sort.SliceStable(events[b], func(i, j int) bool { return events[b][i].pos < events[b][j].pos })
	}
	transfer := func(b *Block, in map[string]bool) map[string]bool {
		out := make(map[string]bool, len(in))
		for k := range in {
			out[k] = true
		}
		for _, ev := range events[b] {
			switch ev.kind {
			case evAcquire:
				out[ev.key] = true
			case evRelease:
				delete(out, ev.key)
			}
		}
		return out
	}
	ins := g.ForwardMay(transfer)
	for b, in := range ins {
		held := make(map[string]bool, len(in))
		for k := range in {
			held[k] = true
		}
		for _, ev := range events[b] {
			switch ev.kind {
			case evAcquire:
				for h := range held {
					if h == ev.key {
						continue // same protocol key: re-entry across instances, not an order edge
					}
					edge := lockOrderEdge{held: h, acquired: ev.key}
					if _, ok := orderSites[edge]; !ok {
						orderSites[edge] = ev.pos
					}
				}
				held[ev.key] = true
				if _, ok := display[ev.key]; !ok {
					display[ev.key] = ev.display
				}
			case evRelease:
				delete(held, ev.key)
			case evBlocking:
				if len(held) == 0 {
					continue
				}
				if pass.Allowed(ev.pos, "lockhold") {
					continue
				}
				names := make([]string, 0, len(held))
				for k := range held {
					d := display[k]
					if d == "" {
						d = k
					}
					names = append(names, d)
				}
				sort.Strings(names)
				pass.Reportf(ev.pos, "%s while holding %s: a blocked goroutine that holds a lock turns backpressure "+
					"into deadlock; release the lock before blocking, or annotate with //pipelayer:allow-lockhold <reason>",
					ev.what, strings.Join(names, ", "))
			}
		}
	}
}

// collectLockEvents extracts the lock acquisitions/releases and blocking
// operations from one block node, in source order. Function literals are
// skipped (analyzed as their own functions), deferred calls are skipped
// (they run at return; a deferred Unlock therefore never releases mid-body,
// which is exactly the runtime semantics the dataflow wants), and select
// comm clauses are skipped (the select head owns their blocking behavior).
func collectLockEvents(pass *Pass, g *CFG, node ast.Node) []lockEvent {
	var evs []lockEvent
	if g.SelectComm[node] {
		return nil
	}
	if expr, ok := node.(ast.Expr); ok && g.RangeX[expr] {
		if isChanType(pass.TypeOf(expr)) {
			evs = append(evs, lockEvent{pos: expr.Pos(), kind: evBlocking, what: "range over a channel"})
		}
		return evs
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				evs = append(evs, lockEvent{pos: n.Pos(), kind: evBlocking, what: "select without a default case"})
			}
			return false // clause internals belong to other blocks
		case *ast.SendStmt:
			evs = append(evs, lockEvent{pos: n.Pos(), kind: evBlocking, what: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				evs = append(evs, lockEvent{pos: n.Pos(), kind: evBlocking, what: "channel receive"})
			}
		case *ast.CallExpr:
			if ev, ok := classifyLockCall(pass, n); ok {
				evs = append(evs, ev)
			}
		}
		return true
	})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// classifyLockCall recognizes mutex acquire/release and the blocking calls
// (WaitGroup.Wait, Cond.Wait, backend Forward*).
func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || pass.TypesInfo == nil {
		return lockEvent{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockEvent{}, false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		switch fn.Name() {
		case "Lock", "RLock":
			key := ExprKey(pass.TypesInfo, sel.X)
			if key == "" {
				return lockEvent{}, false
			}
			return lockEvent{pos: call.Pos(), kind: evAcquire, key: key, display: renderExpr(pass.Fset, sel.X)}, true
		case "Unlock", "RUnlock":
			key := ExprKey(pass.TypesInfo, sel.X)
			if key == "" {
				return lockEvent{}, false
			}
			return lockEvent{pos: call.Pos(), kind: evRelease, key: key, display: renderExpr(pass.Fset, sel.X)}, true
		case "Wait":
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil {
				t := recv.Type().String()
				switch {
				case strings.HasSuffix(t, "sync.WaitGroup"):
					return lockEvent{pos: call.Pos(), kind: evBlocking, what: "sync.WaitGroup.Wait"}, true
				case strings.HasSuffix(t, "sync.Cond"):
					return lockEvent{pos: call.Pos(), kind: evBlocking, what: "sync.Cond.Wait"}, true
				}
			}
		}
		return lockEvent{}, false
	}
	// Backend forward calls block for as long as the pipeline takes (or until
	// backpressure clears): Forward and the other batch-compute entry points
	// must never run under a lock.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && strings.HasPrefix(fn.Name(), "Forward") {
		return lockEvent{pos: call.Pos(), kind: evBlocking, what: "backend " + fn.Name() + " call"}, true
	}
	return lockEvent{}, false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// reportLockOrderCycles reports every pair of locks the package acquires in
// both orders: with A→B in one function and B→A in another, two goroutines
// can each hold one lock and wait forever for the other.
func reportLockOrderCycles(pass *Pass, orderSites map[lockOrderEdge]token.Pos, display map[string]string) {
	edges := make([]lockOrderEdge, 0, len(orderSites))
	for e := range orderSites {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].held != edges[j].held {
			return edges[i].held < edges[j].held
		}
		return edges[i].acquired < edges[j].acquired
	})
	for _, e := range edges {
		rev := lockOrderEdge{held: e.acquired, acquired: e.held}
		revPos, ok := orderSites[rev]
		if !ok || e.held >= e.acquired {
			continue // report each cycle once, at the lexicographically first edge
		}
		pos := orderSites[e]
		if pass.Allowed(pos, "lockhold") || pass.Allowed(revPos, "lockhold") {
			continue
		}
		a, b := display[e.held], display[e.acquired]
		if a == "" {
			a = e.held
		}
		if b == "" {
			b = e.acquired
		}
		pass.Reportf(pos, "inconsistent lock order: %s acquired while %s held here, but %s is also acquired while %s held at %s; "+
			"pick one order package-wide or annotate with //pipelayer:allow-lockhold <reason>",
			b, a, a, b, pass.Fset.Position(revPos))
	}
}
