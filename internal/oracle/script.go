package oracle

import (
	"context"
	"fmt"
	"strings"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
)

// scriptValCap bounds the identity val filter for forms without an explicit
// range: vals are tiny, so [0, scriptValCap] accepts everything.
const scriptValCap = 1 << 30

// scriptMirrorSource renders the scenario's compiled access methods as
// script source: keep mirrors the form's val predicate (parsing the
// "<id>|<val>" payload exactly like interpBase), ref mirrors EntryRef for
// the index forms and FieldRef (carry + routed-or-broadcast emit) for the
// join — a point pointer, which reaches the same dimension rows as the prefix
// range of the join's range variant — and partkey/keys mirror lifecycleSpec's
// extractors.
func scriptMirrorSource(sc *scenario) string {
	var b strings.Builder
	lo, hi := sc.lo, sc.hi
	if sc.job.Name == "point" || sc.job.Name == "join" {
		lo, hi = 0, scriptValCap
	}
	fmt.Fprintf(&b, `fn keep(key, data) {
	let v = int(substr(data, find(data, "|") + 1, len(data)))
	return %d <= v && v <= %d
}
`, lo, hi)
	switch sc.job.Name {
	case "local-range", "global-range":
		b.WriteString(`fn ref(key, data) {
	emit("` + baseFile + `", indexpart(data), indexkey(data))
}
fn partkey(key, data) {
	return key
}
fn keys(key, data) {
	emit(keyint(int(substr(data, find(data, "|") + 1, len(data)))))
}
`)
	case "join":
		emit := `emit("` + dimFile + `", keyint(v), keyint(v))`
		if sc.broadcast {
			emit = `emitbroadcast("` + dimFile + `", keyint(v))`
		}
		fmt.Fprintf(&b, `fn ref(key, data) {
	let v = int(substr(data, find(data, "|") + 1, len(data)))
	carry()
	%s
}
`, emit)
	}
	return b.String()
}

// program compiles the scenario's mirror script, once per world.
func (w *world) program() (*script.Program, error) {
	if w.prog == nil {
		src := scriptMirrorSource(w.scenario)
		if mutate.source != nil {
			src = mutate.source(src)
		}
		prog, err := script.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("mirror source does not compile: %w", err)
		}
		w.prog = prog
	}
	return w.prog, nil
}

// functions swaps the job's compiled interpreter, referencer and filter for
// the mirror script's at functions=script. Scripting is a language swap,
// not a semantic change: the scripted job keeps the seeds, so every
// invariant and the reference point's per-stage emits still apply.
func (w *world) functions(context.Context) error {
	if w.p.is(functions, "compiled") {
		return nil
	}
	prog, err := w.program()
	if err != nil {
		return err
	}
	w.job, err = scriptedJob(w.scenario, prog)
	return err
}

// scriptedJob rebuilds the scenario's job with every mirrorable function
// scripted: filters on the dereference stages, the referencer between
// them. The join keeps its compiled dimension stage, whose filter reads the
// combined record.
func scriptedJob(sc *scenario, prog *script.Program) (*core.Job, error) {
	lim := script.Limits{}
	keep, err := prog.NewFilter("keep", lim)
	if err != nil {
		return nil, err
	}
	seeds := append([]lake.Pointer(nil), sc.job.Seeds...)
	switch sc.job.Name {
	case "point":
		return core.NewJob("point-script", seeds, core.LookupDeref{File: baseFile, Filter: keep})
	case "local-range", "global-range":
		ref, err := prog.NewReferencer(idxFile, "ref", lim)
		if err != nil {
			return nil, err
		}
		return core.NewJob(sc.job.Name+"-script", seeds,
			core.RangeDeref{File: idxFile},
			ref,
			core.LookupDeref{File: baseFile, Filter: keep},
		)
	case "join":
		ref, err := prog.NewReferencer(dimFile, "ref", lim)
		if err != nil {
			return nil, err
		}
		return core.NewJob("join-script", seeds,
			core.LookupDeref{File: baseFile, Filter: keep},
			ref,
			sc.job.Stages[2].Deref,
		)
	}
	return nil, fmt.Errorf("unmirrorable form %q", sc.job.Name)
}

// ScriptCorpus returns the distinct mirror sources the functions=script
// points run across a spread of seeds — the seed corpus for the FuzzScript targets, so
// fuzzing starts from exactly the programs the oracle exercises.
func ScriptCorpus() []string {
	ctx := context.Background()
	var out []string
	seen := map[string]bool{}
	for seed := int64(1); seed <= 24; seed++ {
		sc, err := generate(ctx, seed)
		if err != nil {
			continue
		}
		if src := scriptMirrorSource(sc); !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	return out
}
