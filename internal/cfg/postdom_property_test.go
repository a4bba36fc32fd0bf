package cfg

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// randomKernel builds a structurally valid random kernel: a mix of ALU ops,
// guarded forward/backward branches and guarded exits, terminated by exit.
// Every branch target is a valid pc.
func randomKernel(r *rand.Rand, n int) *isa.Kernel {
	k := &isa.Kernel{Name: "rand"}
	for pc := 0; pc < n; pc++ {
		var in isa.Instr
		in.Dst = isa.RegNone
		in.PDst = isa.PredNone
		in.Pred = isa.PredNone
		in.PSrc = isa.PredNone
		switch r.Intn(4) {
		case 0: // plain op
			in.Op = isa.OpAdd
			in.Dst = 1
			in.Srcs[0] = isa.R(1)
			in.Srcs[1] = isa.Imm(1)
		case 1: // guarded branch to a random target
			in.Op = isa.OpBra
			in.Pred = 0
			in.Target = int32(r.Intn(n + 1))
			if int(in.Target) == n {
				in.Target = int32(n) // will be fixed to the final exit below
			}
		case 2: // guarded exit
			in.Op = isa.OpExit
			in.Pred = 0
		default:
			in.Op = isa.OpNop
		}
		k.Code = append(k.Code, in)
	}
	// Terminate and fix stray branch targets to stay in range.
	k.Code = append(k.Code, isa.Instr{Op: isa.OpExit, Dst: isa.RegNone, Pred: isa.PredNone, PDst: isa.PredNone, PSrc: isa.PredNone})
	for pc := range k.Code {
		if k.Code[pc].Op == isa.OpBra && int(k.Code[pc].Target) >= len(k.Code) {
			k.Code[pc].Target = int32(len(k.Code) - 1)
		}
	}
	k.ComputeRegUsage()
	return k
}

// bruteForcePostDoms computes, for every block, the set of blocks that
// post-dominate it, by the classic dataflow PD(n) = {n} U intersect over
// successors' PD — the definition the fast Cooper-Harvey-Kennedy
// implementation must agree with. The virtual exit node is block index nb.
func bruteForcePostDoms(g *Graph) [][]bool {
	nb := len(g.Blocks)
	exit := nb
	full := func() []bool {
		s := make([]bool, nb+1)
		for i := range s {
			s[i] = true
		}
		return s
	}
	pd := make([][]bool, nb+1)
	for i := 0; i <= nb; i++ {
		pd[i] = full()
	}
	pd[exit] = make([]bool, nb+1)
	pd[exit][exit] = true

	changed := true
	for changed {
		changed = false
		for b := 0; b < nb; b++ {
			meet := full()
			any := false
			for _, s := range g.Blocks[b].Succs {
				si := s
				if s == ExitNode {
					si = exit
				}
				for i := range meet {
					meet[i] = meet[i] && pd[si][i]
				}
				any = true
			}
			if !any {
				meet = make([]bool, nb+1)
			}
			meet[b] = true
			for i := range meet {
				if meet[i] != pd[b][i] {
					pd[b] = meet
					changed = true
					break
				}
			}
		}
	}
	return pd
}

// TestIPDomAgainstBruteForce: on hundreds of random CFGs, the fast
// immediate-post-dominator must (a) be a strict post-dominator of its block
// and (b) be the *closest* one: every other strict post-dominator of the
// block must also post-dominate the ipdom.
func TestIPDomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(0xCF6))
	for trial := 0; trial < 400; trial++ {
		k := randomKernel(r, 3+r.Intn(12))
		g, err := Build(k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pd := bruteForcePostDoms(g)
		nb := len(g.Blocks)
		exit := nb
		for b := 0; b < nb; b++ {
			ip := g.ipdom[b]
			// Blocks that cannot reach exit have the full set in the
			// brute-force fixpoint; skip those (no meaningful ipdom).
			reachesExit := pd[b][exit]
			if !reachesExit {
				continue
			}
			ipi := ip
			if ip == ExitNode {
				ipi = exit
			}
			if ip == -1 {
				t.Fatalf("trial %d block %d: no ipdom despite reaching exit", trial, b)
			}
			if !pd[b][ipi] || ipi == b {
				t.Fatalf("trial %d block %d: ipdom %d is not a strict post-dominator", trial, b, ip)
			}
			// Closest: every other strict post-dominator of b must also
			// post-dominate ipi.
			for d := 0; d <= exit; d++ {
				if d == b || d == ipi || !pd[b][d] {
					continue
				}
				if !pd[ipi][d] {
					t.Fatalf("trial %d block %d: %d is a closer post-dominator than ipdom %d", trial, b, d, ip)
				}
			}
		}
	}
}
