package main

import (
	"fmt"
	"math/rand"

	"selectivemt"
	"selectivemt/internal/gen"
	"selectivemt/internal/logic"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sim"
	"selectivemt/internal/tech"
)

// refModel evaluates a gen.Module node by node. It shares no code with
// synthesis, the netlist or the simulator, so it is an independent
// reference for the netlists the flows end with.
type refModel struct {
	m     *gen.Module
	val   []bool
	state []bool // flop state, indexed by the DFF's node ID
}

func newRefModel(m *gen.Module) *refModel {
	return &refModel{m: m, val: make([]bool, len(m.Nodes)), state: make([]bool, len(m.Nodes))}
}

// eval propagates the current inputs and flop states. Module nodes only
// read lower-numbered nodes, except flop inputs, which eval never reads.
func (r *refModel) eval() {
	for _, n := range r.m.Nodes {
		switch n.Op {
		case gen.OpInput:
		case gen.OpDFF:
			r.val[n.ID] = r.state[n.ID]
		case gen.OpNot:
			r.val[n.ID] = !r.val[n.Ins[0]]
		case gen.OpMux:
			if r.val[n.Ins[0]] {
				r.val[n.ID] = r.val[n.Ins[2]]
			} else {
				r.val[n.ID] = r.val[n.Ins[1]]
			}
		default:
			v := r.val[n.Ins[0]]
			for _, in := range n.Ins[1:] {
				switch n.Op {
				case gen.OpAnd:
					v = v && r.val[in]
				case gen.OpOr:
					v = v || r.val[in]
				case gen.OpXor:
					v = v != r.val[in]
				}
			}
			r.val[n.ID] = v
		}
	}
}

// step is a clock edge: every flop captures its input.
func (r *refModel) step() {
	for _, n := range r.m.Nodes {
		if n.Op == gen.OpDFF {
			r.state[n.ID] = r.val[n.Ins[0]]
		}
	}
}

// registerDepth is the largest number of flops on any path from an input
// to an output: after that many cycles every output depends on the
// random input vectors rather than on the reset state.
func registerDepth(m *gen.Module) int {
	depth := make([]int, len(m.Nodes))
	for _, n := range m.Nodes {
		d := 0
		for _, in := range n.Ins {
			if in < n.ID {
				d = max(d, depth[in])
			}
		}
		if n.Op == gen.OpDFF {
			d++
		}
		depth[n.ID] = d
	}
	worst := 0
	for _, id := range m.Outputs {
		worst = max(worst, depth[id])
	}
	return worst
}

// equivalenceCycles is how long checkEquivalent runs on a module: its
// register depth plus a margin of cycles driven wholly by random inputs.
func equivalenceCycles(m *gen.Module) int { return registerDepth(m) + 16 }

// checkEquivalent drives the module and the netlist with the same seeded
// random input vectors, flops reset to 0, and compares every primary
// output cycle by cycle. The netlist runs through sim, so a broken
// simulator shows here as well as a broken flow.
func checkEquivalent(m *gen.Module, d *netlist.Design, cycles int, seed int64) error {
	s, err := sim.New(d)
	if err != nil {
		return fmt.Errorf("equivalence: %w", err)
	}
	s.ResetState(logic.V0)
	ref := newRefModel(m)
	outs := m.OutputNames()
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < cycles; cyc++ {
		for _, id := range m.Inputs {
			v := rng.Intn(2) == 1
			ref.val[id] = v
			if err := s.SetInput(m.Nodes[id].Name, logic.FromBool(v)); err != nil {
				return fmt.Errorf("equivalence: %w", err)
			}
		}
		ref.eval()
		s.Eval()
		for _, o := range outs {
			got, err := s.PortValue(o)
			if err != nil {
				return fmt.Errorf("equivalence: %w", err)
			}
			if want := logic.FromBool(ref.val[m.Outputs[o]]); got != want {
				return fmt.Errorf("equivalence: %s cycle %d output %s: netlist %v, module %v",
					d.Name, cyc, o, got, want)
			}
		}
		ref.step()
		s.Step()
	}
	return nil
}

// checkTable1Order checks the paper's Table 1 orderings on one
// comparison: area Dual < Imp < Conv, leakage Imp < Conv < Dual.
func checkTable1Order(c *selectivemt.Comparison) error {
	d, v, i := c.Dual, c.Conv, c.Improved
	if !(d.AreaUm2 < i.AreaUm2 && i.AreaUm2 < v.AreaUm2) {
		return fmt.Errorf("%s: area order Dual < Imp < Conv broken: %.1f, %.1f, %.1f µm²",
			c.Circuit, d.AreaUm2, i.AreaUm2, v.AreaUm2)
	}
	if !(i.StandbyLeakMW < v.StandbyLeakMW && v.StandbyLeakMW < d.StandbyLeakMW) {
		return fmt.Errorf("%s: leakage order Imp < Conv < Dual broken: %.6g, %.6g, %.6g mW",
			c.Circuit, i.StandbyLeakMW, v.StandbyLeakMW, d.StandbyLeakMW)
	}
	return nil
}

// timingFailure returns why a finished result's typical-corner timing is
// not clean ("" when setup and hold slack are both >= 0).
func timingFailure(wnsNs, holdNs float64) string {
	switch {
	case wnsNs < 0:
		return fmt.Sprintf("%s: WNS %.4f ns at typ", setupSlackPrefix, wnsNs)
	case holdNs < 0:
		return fmt.Sprintf("finished with negative hold slack: %.4f ns at typ", holdNs)
	}
	return ""
}

// checkCorners checks the sign-off report's corner properties: hold is
// clean at every corner after the fix, setup binds slow, leakage binds
// fast-hot, and leakage orders fast-hot > slow > typ > fast-cold. Setup
// at slow is negative by design (the flow optimizes at typ) and is not
// checked.
func checkCorners(rep *mcmm.Report) error {
	if rep == nil {
		return fmt.Errorf("corners: no sign-off report")
	}
	leak := map[tech.Corner]float64{}
	for _, m := range rep.Corners {
		if m.HoldWNSNs < 0 {
			return fmt.Errorf("corners: hold WNS %.4f ns at %s after the fix", m.HoldWNSNs, m.Corner)
		}
		leak[m.Corner] = m.StandbyLeakMW
	}
	if len(leak) != len(tech.Corners()) {
		return fmt.Errorf("corners: %d corners reported, want %d", len(leak), len(tech.Corners()))
	}
	if rep.BindingSetup != tech.CornerSlow {
		return fmt.Errorf("corners: setup binds %s, want slow", rep.BindingSetup)
	}
	if rep.BindingLeakage != tech.CornerFastHot {
		return fmt.Errorf("corners: leakage binds %s, want fast-hot", rep.BindingLeakage)
	}
	fh, sl, ty, fc := leak[tech.CornerFastHot], leak[tech.CornerSlow], leak[tech.CornerTyp], leak[tech.CornerFastCold]
	if !(fh > sl && sl > ty && ty > fc) {
		return fmt.Errorf("corners: leakage order fast-hot > slow > typ > fast-cold broken: %.4g, %.4g, %.4g, %.4g mW",
			fh, sl, ty, fc)
	}
	return nil
}
