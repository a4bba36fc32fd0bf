// Package cfg builds control-flow graphs over kernel code and computes
// immediate post-dominators.
//
// The SIMT execution model reconverges divergent warps at the immediate
// post-dominator of the diverging branch (the mechanism used by GPGPU-Sim and
// described in the warped-compression paper's baseline). Rather than require
// explicit SSY/JOIN markers in the assembly, this package derives the
// reconvergence PC of every branch from the kernel's CFG at load time.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Block is one basic block: instructions [Start, End) with CFG successors.
type Block struct {
	Start, End int
	// Succs are successor block indices; ExitNode denotes kernel exit.
	Succs []int
}

// Graph is the CFG of a kernel plus its post-dominator tree.
type Graph struct {
	Blocks []Block
	// blockOf maps each pc to its block index.
	blockOf []int
	// ipdom[b] is the immediate post-dominator block of b; ExitNode when
	// the block post-dominates straight to exit, -1 for unreachable blocks.
	ipdom []int
}

// ExitNode is the virtual block index representing kernel termination.
const ExitNode = -2

// Build constructs the CFG of a kernel and computes post-dominators.
func Build(k *isa.Kernel) (*Graph, error) {
	n := len(k.Code)
	if n == 0 {
		return nil, fmt.Errorf("cfg: empty kernel %s", k.Name)
	}

	// Find leaders: entry, branch targets, instruction after any terminator.
	leader := make([]bool, n)
	leader[0] = true
	for pc, in := range k.Code {
		switch in.Op {
		case isa.OpBra:
			if int(in.Target) < n {
				leader[in.Target] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		case isa.OpExit:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}

	g := &Graph{blockOf: make([]int, n)}
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			g.Blocks = append(g.Blocks, Block{Start: pc})
		}
		g.blockOf[pc] = len(g.Blocks) - 1
	}
	for i := range g.Blocks {
		if i+1 < len(g.Blocks) {
			g.Blocks[i].End = g.Blocks[i+1].Start
		} else {
			g.Blocks[i].End = n
		}
	}

	// Successors from each block's terminating instruction.
	for i := range g.Blocks {
		b := &g.Blocks[i]
		last := &k.Code[b.End-1]
		switch last.Op {
		case isa.OpBra:
			b.Succs = append(b.Succs, g.blockOf[last.Target])
			if last.Pred != isa.PredNone { // conditional: fallthrough too
				if b.End >= n {
					return nil, fmt.Errorf("cfg: kernel %s: conditional branch at pc %d falls off code end", k.Name, b.End-1)
				}
				b.Succs = append(b.Succs, g.blockOf[b.End])
			}
		case isa.OpExit:
			b.Succs = append(b.Succs, ExitNode)
			if last.Pred != isa.PredNone { // thread-exit: others fall through
				if b.End >= n {
					return nil, fmt.Errorf("cfg: kernel %s: guarded exit at pc %d falls off code end", k.Name, b.End-1)
				}
				b.Succs = append(b.Succs, g.blockOf[b.End])
			}
		default:
			if b.End >= n {
				return nil, fmt.Errorf("cfg: kernel %s: control falls off code end at pc %d", k.Name, b.End-1)
			}
			b.Succs = append(b.Succs, g.blockOf[b.End])
		}
	}

	g.computePostDoms()
	return g, nil
}

// computePostDoms runs the iterative dominator algorithm (Cooper-Harvey-
// Kennedy) on the reverse CFG rooted at the virtual exit node.
func (g *Graph) computePostDoms() {
	nb := len(g.Blocks)
	// preds on reverse graph == successors on forward graph; we need the
	// forward predecessors of each node when walking the reverse graph,
	// i.e. for post-dominance we process successors as "predecessors".
	// Represent exit as index nb in dense arrays.
	const unset = -1
	exit := nb
	succs := make([][]int, nb)
	for i, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == ExitNode {
				succs[i] = append(succs[i], exit)
			} else {
				succs[i] = append(succs[i], s)
			}
		}
	}

	// Reverse post-order of the reverse CFG: DFS from exit over reverse
	// edges. Build reverse edges (forward preds of each node).
	rev := make([][]int, nb+1)
	for i, ss := range succs {
		for _, s := range ss {
			rev[s] = append(rev[s], i)
		}
	}
	order := make([]int, 0, nb+1) // postorder of DFS from exit on rev edges
	seen := make([]bool, nb+1)
	var dfs func(int)
	dfs = func(u int) {
		seen[u] = true
		for _, v := range rev[u] {
			if !seen[v] {
				dfs(v)
			}
		}
		order = append(order, u)
	}
	dfs(exit)

	postIdx := make([]int, nb+1)
	for i := range postIdx {
		postIdx[i] = unset
	}
	for i, u := range order {
		postIdx[u] = i
	}

	idom := make([]int, nb+1)
	for i := range idom {
		idom[i] = unset
	}
	idom[exit] = exit

	intersect := func(a, b int) int {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}

	// Process reachable nodes in reverse postorder (excluding exit).
	rpo := make([]int, len(order))
	copy(rpo, order)
	sort.Slice(rpo, func(i, j int) bool { return postIdx[rpo[i]] > postIdx[rpo[j]] })

	for changed := true; changed; {
		changed = false
		for _, u := range rpo {
			if u == exit {
				continue
			}
			newIdom := unset
			for _, s := range succs[u] { // reverse-graph predecessors
				if postIdx[s] == unset || idom[s] == unset {
					continue
				}
				if newIdom == unset {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != unset && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}

	g.ipdom = make([]int, nb)
	for i := 0; i < nb; i++ {
		switch {
		case idom[i] == unset:
			g.ipdom[i] = -1 // unreachable
		case idom[i] == exit:
			g.ipdom[i] = ExitNode
		default:
			g.ipdom[i] = idom[i]
		}
	}
}

// ReconvPC returns the reconvergence PC for a branch at pc: the first
// instruction of the branch block's immediate post-dominator, or -1 when
// control only reconverges at kernel exit.
func (g *Graph) ReconvPC(pc int) int32 {
	ip := g.ipdom[g.blockOf[pc]]
	if ip < 0 {
		return -1
	}
	return int32(g.Blocks[ip].Start)
}

// ComputeReconvergence fills k.ReconvPC with the reconvergence point of
// every guarded branch (-1 elsewhere and for exit-reconverged branches).
// Unconditional branches never diverge and guarded exits retire lanes
// without a stack entry, so neither needs a reconvergence PC. Must be called
// once before a kernel is executed.
func ComputeReconvergence(k *isa.Kernel) error {
	g, err := Build(k)
	if err != nil {
		return err
	}
	k.ReconvPC = make([]int32, len(k.Code))
	for pc := range k.Code {
		k.ReconvPC[pc] = -1
		in := &k.Code[pc]
		if in.Op == isa.OpBra && in.Pred != isa.PredNone {
			k.ReconvPC[pc] = g.ReconvPC(pc)
		}
	}
	return nil
}
