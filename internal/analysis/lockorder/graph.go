package lockorder

// The whole-program "acquired B while holding A" graph, built from the
// locksum facts, and its cycle check.
//
// The per-function checks can only order mutexes that carry numeric
// ranks; a deadlock between two unranked mutexes — or between a ranked
// and an unranked one — is invisible to them. The graph check is
// rank-blind: every mutex the fact layer knows about is a node, every
// "held A when acquiring B" pair observed in any flattened function
// summary is an edge, and any strongly connected component with more
// than one node is a potential deadlock reported with one example call
// path per edge.
//
// `pilint -lockgraph` renders the same graph as DOT (nodes labeled
// with their ranks, edges with an example acquisition site) so the
// documented lock order can be reviewed — and committed — as a
// picture. CI asserts the graph stays acyclic and that its nodes and
// edges match the committed docs/lockgraph.dot.

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strconv"
	"strings"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/locksum"
)

// Check is the whole-program cycle detector, run by the standalone
// driver after every package has contributed its facts.
var Check = &driver.GlobalCheck{
	Name: "lockgraph",
	Doc:  "detect cycles in the whole-program acquired-while-holding lock graph",
	Run:  checkGraph,
}

// edge is one observed "acquired to while holding from", with one
// example site for diagnostics.
type edge struct {
	via  string // function performing the acquisition
	posn string // short position of the acquisition
}

type graph struct {
	nodes map[string]locksum.MutexRank
	edges map[string]map[string]edge
}

func build(facts driver.Facts) *graph {
	g := &graph{
		nodes: make(map[string]locksum.MutexRank),
		edges: make(map[string]map[string]edge),
	}
	paths := make([]string, 0, len(facts))
	for p := range facts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pf, ok := facts[p].(*locksum.PackageFact)
		if !ok {
			continue
		}
		for id, mr := range pf.Mutexes {
			g.nodes[id] = mr
		}
		fns := make([]string, 0, len(pf.Funcs))
		for f := range pf.Funcs {
			fns = append(fns, f)
		}
		sort.Strings(fns)
		for _, f := range fns {
			g.simulate(pf.Funcs[f])
		}
	}
	return g
}

// simulate replays one flattened summary, adding a held->acquired edge
// for every distinct pair. Instance identity is ignored: two locks of
// the same canonical ID never form an edge (per-index ordering within
// a slice is the per-function check's concern), and counts keep re-entrant
// summaries balanced.
func (g *graph) simulate(sum *locksum.FuncSummary) {
	held := make(map[string]int)
	for _, ev := range sum.Events {
		switch ev.Kind {
		case locksum.Acquire:
			for h := range held {
				if h == ev.Mutex {
					continue
				}
				g.addEdge(h, ev.Mutex, ev)
			}
			held[ev.Mutex]++
		case locksum.Release:
			if held[ev.Mutex] > 0 {
				held[ev.Mutex]--
				if held[ev.Mutex] == 0 {
					delete(held, ev.Mutex)
				}
			}
		}
	}
}

func (g *graph) addEdge(from, to string, ev locksum.Event) {
	m := g.edges[from]
	if m == nil {
		m = make(map[string]edge)
		g.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = edge{via: ev.Via, posn: ev.Posn}
	}
	// Every edge endpoint is a node even if its declaring package was
	// outside the analyzed pattern set.
	if _, ok := g.nodes[from]; !ok {
		g.nodes[from] = locksum.MutexRank{Rank: locksum.RankUnmarked}
	}
	if _, ok := g.nodes[to]; !ok {
		g.nodes[to] = locksum.MutexRank{Rank: locksum.RankUnmarked}
	}
}

func checkGraph(facts driver.Facts) []driver.Finding {
	g := build(facts)
	var findings []driver.Finding
	for _, scc := range g.cycles() {
		sort.Strings(scc)
		inCycle := make(map[string]bool, len(scc))
		for _, n := range scc {
			inCycle[n] = true
		}
		var examples []string
		first := ""
		for _, from := range scc {
			tos := make([]string, 0, len(g.edges[from]))
			for to := range g.edges[from] {
				if inCycle[to] {
					tos = append(tos, to)
				}
			}
			sort.Strings(tos)
			for _, to := range tos {
				e := g.edges[from][to]
				examples = append(examples, fmt.Sprintf("%s -> %s in %s at %s", shortID(from), shortID(to), e.via, e.posn))
				if first == "" {
					first = e.posn
				}
			}
		}
		names := make([]string, len(scc))
		for i, n := range scc {
			names[i] = shortID(n)
		}
		findings = append(findings, driver.Finding{
			Kind: "lockgraph",
			Posn: posnOf(first),
			Message: fmt.Sprintf("lock graph cycle among %s: these mutexes are acquired while holding each other, a potential deadlock (%s)",
				strings.Join(names, ", "), strings.Join(examples, "; ")),
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Message < findings[j].Message })
	return findings
}

// cycles returns the strongly connected components with more than one
// node (self-edges cannot exist: addEdge skips same-ID pairs).
func (g *graph) cycles() [][]string {
	// Tarjan's algorithm, iterative enough for our graph sizes via
	// recursion on a helper.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	nodes := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(g.edges[v]))
		for to := range g.edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}

// WriteDot renders the graph as a deterministic DOT document: nodes
// sorted and labeled with their rank, edges labeled with one example
// acquisition site.
func WriteDot(facts driver.Facts, w io.Writer) error {
	g := build(facts)
	nodes := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var b strings.Builder
	b.WriteString("// Lock-order graph: \"A -> B\" means B is acquired while A is held.\n")
	b.WriteString("// Generated by `pilint -lockgraph ./...`; CI asserts it stays acyclic.\n")
	b.WriteString("digraph lockgraph {\n")
	b.WriteString("\trankdir=LR;\n")
	b.WriteString("\tnode [shape=box, fontname=\"monospace\"];\n")
	for _, n := range nodes {
		mr := g.nodes[n]
		rank := "unranked"
		switch {
		case mr.Rank >= 0:
			rank = fmt.Sprintf("rank %d", mr.Rank)
		case mr.Rank == locksum.RankNone:
			rank = "rank none"
		}
		fmt.Fprintf(&b, "\t%q [label=\"%s\\n%s\"];\n", n, shortID(n), rank)
	}
	for _, from := range nodes {
		tos := make([]string, 0, len(g.edges[from]))
		for to := range g.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			e := g.edges[from][to]
			fmt.Fprintf(&b, "\t%q -> %q [label=%q];\n", from, to, e.posn)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// shortID strips the module-internal prefix for labels and messages.
func shortID(id string) string {
	return strings.TrimPrefix(id, "patchindex/internal/")
}

// posnOf turns a locksum short position ("dir/file.go:123") back into
// a reportable position.
func posnOf(short string) token.Position {
	if i := strings.LastIndexByte(short, ':'); i >= 0 {
		if n, err := strconv.Atoi(short[i+1:]); err == nil {
			return token.Position{Filename: short[:i], Line: n}
		}
	}
	return token.Position{Filename: short}
}
