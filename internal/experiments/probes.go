package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// The corpus's engine and executor probes: each builds its operands once
// and returns the timed bodies its cells share in every run.

// newCell is a cell template: identity, dims and per-run GEMM count.
func newCell(sh corpusShape, scenario, dtype string) CorpusCell {
	return CorpusCell{Shape: sh.name, Scenario: scenario, Dtype: dtype, M: sh.m, K: sh.k, N: sh.n, Reps: sh.reps}
}

// unit is one timed body of a probe: do runs gemms GEMMs of flops each.
type unit struct {
	do    func() error
	gemms int
	flops float64
}

// timeUnits times each unit once per run, back to back in order.
func timeUnits(units []unit) runFn {
	return func() ([]runSample, error) {
		out := make([]runSample, len(units))
		for i, u := range units {
			t0 := time.Now()
			if err := u.do(); err != nil {
				return nil, err
			}
			out[i] = runSample{gemms: u.gemms, flops: u.flops * float64(u.gemms), elapsed: time.Since(t0)}
		}
		return out, nil
	}
}

// engineSpec is a probe on the corpus engine. kind is a cell scenario
// (fresh, resident, serve) or a compound: batch (one GemmBatch cell of
// batch-size groups), batch+loop (that cell plus the same GEMMs as single
// requests) and resident-bt (a transposed resident weight plus its
// per-call-packing partner).
func engineSpec(sh corpusShape, kind, dtype string, batch int, gated bool) probeSpec {
	var cells []CorpusCell
	group := kind
	switch kind {
	case "batch", "batch+loop":
		group = "batch"
		groups := max(sh.reps/batch, 1)
		sh.reps = groups * batch
		c := newCell(sh, fmt.Sprintf("batch-%d", batch), dtype)
		c.Batch = batch
		cells = append(cells, c)
		if kind == "batch+loop" {
			c.Scenario = fmt.Sprintf("loop-%d", batch)
			cells = append(cells, c)
		}
	case "resident-bt":
		group = "resident"
		cells = []CorpusCell{newCell(sh, "resident-bt", dtype), newCell(sh, "fresh-bt", dtype)}
	default:
		cells = []CorpusCell{newCell(sh, kind, dtype)}
	}
	return probeSpec{group: group, cells: cells, gated: gated, build: func(env *probeEnv) (runFn, func(), error) {
		var units []unit
		var cleanup func()
		var err error
		if dtype == "f64" {
			units, cleanup, err = engineUnits[float64](env, sh, kind, batch)
		} else {
			units, cleanup, err = engineUnits[float32](env, sh, kind, batch)
		}
		if err != nil {
			return nil, nil, err
		}
		if kind == "serve" { // the stream count follows the host
			cells[0].Workers = serveWorkers(env.cores)
		}
		return timeUnits(units), cleanup, nil
	}}
}

// serveWorkers is the serve scenario's concurrent stream count.
func serveWorkers(cores int) int { return min(max(cores, 2), 4) }

// engineUnits builds an engine probe's timed bodies; see engineSpec.
func engineUnits[T matrix.Scalar](env *probeEnv, sh corpusShape, kind string, batch int) ([]unit, func(), error) {
	e := env.e
	a := matrix.New[T](sh.m, sh.k)
	b := matrix.New[T](sh.k, sh.n)
	a.Randomize(env.rng)
	b.Randomize(env.rng)
	c := matrix.New[T](sh.m, sh.n)
	flops := matrix.GemmFlops(sh.m, sh.n, sh.k)
	reps := func(call func() error) func() error {
		return func() error {
			for i := 0; i < sh.reps; i++ {
				if err := call(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	id := fmt.Sprintf("corpus-%s-%s-%T", sh.name, kind, *new(T))

	switch kind {
	case "fresh":
		do := reps(func() error { _, err := engine.Gemm(e, c, a, b); return err })
		return []unit{{do, sh.reps, flops}}, nil, nil
	case "resident":
		if err := engine.RegisterB(e, id, b); err != nil {
			return nil, nil, err
		}
		do := reps(func() error { _, err := engine.GemmResident(e, c, a, id); return err })
		return []unit{{do, sh.reps, flops}}, func() { e.ReleaseB(id) }, nil
	case "resident-bt":
		bt := matrix.New[T](sh.n, sh.k)
		bt.Randomize(env.rng)
		if err := engine.RegisterBT(e, id, bt, true); err != nil {
			return nil, nil, err
		}
		resident := reps(func() error { _, err := engine.GemmResidentScaled(e, c, a, id, false, 1, 0); return err })
		fresh := reps(func() error { _, err := engine.GemmScaled(e, c, a, bt, false, true, 1, 0); return err })
		return []unit{{resident, sh.reps, flops}, {fresh, sh.reps, flops}}, func() { e.ReleaseB(id) }, nil
	case "serve":
		workers := serveWorkers(env.cores)
		outs := make([]*matrix.Matrix[T], workers)
		for i := range outs {
			outs[i] = matrix.New[T](sh.m, sh.n)
		}
		do := func() error {
			errCh := make(chan error, workers)
			for _, out := range outs {
				go func(c *matrix.Matrix[T]) {
					for i := 0; i < sh.reps; i++ {
						if _, err := engine.GemmScaledFor(e, "corpus", c, a, b, false, false, 1, 0); err != nil {
							errCh <- err
							return
						}
					}
					errCh <- nil
				}(out)
			}
			var first error
			for range outs {
				if err := <-errCh; err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		return []unit{{do, sh.reps * workers, flops}}, nil, nil
	case "batch", "batch+loop":
		// Distinct activations against one shared weight matrix (the same
		// *Matrix repeated, so the batch path packs it once per batch).
		as := make([]*matrix.Matrix[T], batch)
		bs := make([]*matrix.Matrix[T], batch)
		cs := make([]*matrix.Matrix[T], batch)
		for i := range as {
			as[i] = matrix.New[T](sh.m, sh.k)
			as[i].Randomize(env.rng)
			bs[i] = b
			cs[i] = matrix.New[T](sh.m, sh.n)
		}
		groups := sh.reps / batch
		batched := func() error {
			for g := 0; g < groups; g++ {
				if _, err := engine.GemmBatchScaled(e, cs, as, bs, false, false, 1, 0); err != nil {
					return err
				}
			}
			return nil
		}
		units := []unit{{batched, sh.reps, flops}}
		if kind == "batch+loop" {
			looped := func() error {
				for g := 0; g < groups; g++ {
					for i := range cs {
						if _, err := engine.GemmScaled(e, cs[i], as[i], b, false, false, 1, 0); err != nil {
							return err
						}
					}
				}
				return nil
			}
			units = append(units, unit{looped, sh.reps, flops})
		}
		return units, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown engine probe kind %q", kind)
}

// execSpec times one GEMM per run on a core executor with a fixed CB
// geometry, with or without a panel cache beyond the ping-pong pair — the
// executor with no engine in front of it.
func execSpec(sh corpusShape, cache bool) probeSpec {
	scenario := "exec"
	if cache {
		scenario = "exec-cache"
	}
	c := newCell(sh, scenario, "f32")
	c.Reps, c.Tier = 1, "executor"
	return probeSpec{group: "exec", cells: []CorpusCell{c}, gated: true, build: func(env *probeEnv) (runFn, func(), error) {
		cfg := core.Config{Cores: env.cores, MC: 64, KC: 128, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
		if sh.name == "skewed" {
			// Small M: a narrow A panel and half of K per step.
			cfg.MC, cfg.KC = 8, sh.k/2
		}
		var opts []core.Option
		if cache {
			opts = append(opts, core.WithPanelCache(16))
		}
		ex, err := core.NewExecutor[float32](cfg, nil, opts...)
		if err != nil {
			return nil, nil, err
		}
		a := matrix.New[float32](sh.m, sh.k)
		b := matrix.New[float32](sh.k, sh.n)
		a.Randomize(env.rng)
		b.Randomize(env.rng)
		out := matrix.New[float32](sh.m, sh.n)
		do := func() error { _, err := ex.Gemm(out, a, b); return err }
		return timeUnits([]unit{{do, 1, matrix.GemmFlops(sh.m, sh.n, sh.k)}}), ex.Close, nil
	}}
}
