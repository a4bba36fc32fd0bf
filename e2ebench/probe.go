package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/valueprof"
)

// probeSpec is what a traced run's layer probe exercises: the workload's own
// kernels under one of its configurations.
type probeSpec struct {
	benches []*kernels.Benchmark
	cfg     sim.Config
	scale   kernels.Scale
	// serve asks for one small campaign through the serving layers, for
	// workloads whose passes do not serve.
	serve bool
}

// probe times the layers a workload's passes reach only from the inside.
// For every kernel it executes once directly, records once through
// Engine.Record, round-trips the trace through exectrace.Write and Read,
// replays it through Engine.Replay under the same configuration — the
// replay must equal the execute byte for byte — and times Compressor.Choose
// over the register values the trace recorded.
func probe(ctx context.Context, o options, ps probeSpec, t *tally, rec *recorder) error {
	watch := newEngineWatch(nil, rec)
	eng := experiments.NewEngine(ctx, experiments.EngineConfig{Parallelism: 1, Scale: ps.scale, Progress: watch.event})
	start := time.Now()
	for _, b := range ps.benches {
		if err := probeKernel(ctx, eng, b, ps, t, rec); err != nil {
			return err
		}
	}
	rec.add("experiments.capacity_s", time.Since(start).Seconds())
	if !ps.serve {
		return nil
	}
	names := make([]string, len(ps.benches))
	for i, b := range ps.benches {
		names[i] = b.Name
	}
	c, err := newCampaign(o, names, []int{2}, []string{core.DefaultScheme}, 4)
	if err != nil {
		return err
	}
	sub := &tally{}
	if err := c.pass(ctx, sub, rec); err != nil {
		return err
	}
	t.merge(sub)
	return nil
}

func probeKernel(ctx context.Context, eng *experiments.Engine, b *kernels.Benchmark, ps probeSpec, t *tally, rec *recorder) error {
	res, run, err := execute(ctx, rec, b, ps.cfg, ps.scale)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil {
		t.op(err)
		return nil
	}
	rec.add("sim.run_ns", float64(run))
	rec.add("sim.sm_cycles", float64(res.Cycles)*float64(ps.cfg.NumSMs))
	rec.add("sim.run_insts", float64(res.Stats.Instructions))
	t0 := time.Now()
	recorded, lt, err := eng.Record(b, ps.cfg)
	t1 := time.Now()
	if errors.Is(err, sim.ErrUntraceable) {
		return nil // the engine executes such kernels instead; nothing to replay
	}
	if err == nil {
		err = sameResult(res, recorded, b.Name+": record vs execute")
	}
	t.op(err)
	if err != nil {
		return ctx.Err()
	}
	rec.span(0, 0, "sim.record", b.Name, t0, t1)

	var buf bytes.Buffer
	trace := &exectrace.Trace{Meta: exectrace.Meta{Benchmark: b.Name, Scale: ps.scale.String()}, Launches: []*exectrace.Launch{lt}}
	if err := exectrace.Write(&buf, trace); err != nil {
		return fmt.Errorf("%s: write trace: %w", b.Name, err)
	}
	t2 := time.Now()
	read, err := exectrace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("%s: read trace: %w", b.Name, err)
	}
	t3 := time.Now()
	rec.span(0, 0, "exectrace.write", b.Name, t1, t2)
	rec.span(0, 0, "exectrace.read", b.Name, t2, t3)
	rec.add("exectrace.bytes", float64(buf.Len()))
	rec.add("exectrace.insts", float64(read.Instructions()))

	replayed, err := eng.Replay(b.Name, read.Launches[0], ps.cfg)
	t4 := time.Now()
	if err == nil {
		err = sameResult(res, replayed, b.Name+": replay vs execute")
	}
	t.op(err)
	rec.span(0, 0, "sim.replay", b.Name, t3, t4)
	rec.add("sim.replay_ns", float64(t4.Sub(t3)))
	return timeChoose(rec, read.Launches[0])
}

// chooseSink keeps the timed Choose loop from being optimized away.
var chooseSink core.Encoding

// timeChoose times Compressor.Choose for every registered scheme over the
// register values the trace recorded, each with its destination register.
func timeChoose(rec *recorder, lt *exectrace.Launch) error {
	type write struct {
		reg  int
		vals *core.WarpReg
	}
	var writes []write
	for _, ws := range lt.Warps {
		v := 0
		for _, r := range ws.Recs {
			if r.Flags&exectrace.FlagVals != 0 {
				writes = append(writes, write{int(lt.Kernel.Code[r.PC].Dst), &ws.Vals[v]})
				v++
			}
		}
	}
	for _, scheme := range core.Schemes() {
		c, err := core.NewCompressor(scheme)
		if err != nil {
			return err
		}
		if tb, ok := c.(core.KernelTableBinder); ok {
			tb.BindTable(valueprof.StaticTable(lt.Kernel))
		}
		var sink core.Encoding
		start := time.Now()
		for _, w := range writes {
			sink ^= c.Choose(w.reg, w.vals, core.ModeWarped)
		}
		rec.add("core.choose_ns."+scheme, float64(time.Since(start)))
		rec.add("core.choose_calls."+scheme, float64(len(writes)))
		chooseSink ^= sink
	}
	return nil
}
