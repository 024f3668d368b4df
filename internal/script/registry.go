package script

import (
	"fmt"
	"sort"
	"sync"

	"lakeharbor/internal/indexer"
)

// The script registry: named sources compiled once at Put time
// (validate-at-POST — a broken script never enters the lake), resolved to
// immutable Handles at use time. A Handle pins one compiled Program: a
// structure build or a job that captured a Handle keeps its semantics even
// if the script is re-POSTed mid-flight — the new version only applies to
// bindings resolved after the Put.

// Handle pins one compiled version of a named script.
type Handle struct {
	// Name is the registry name the source was Put under.
	Name string
	// Version increments on every Put of the name, starting at 1.
	Version int64
	prog    *Program
}

// Program returns the pinned compiled program.
func (h *Handle) Program() *Program { return h.prog }

// Info is the wire-friendly summary of one registered script.
type Info struct {
	Name        string   `json:"name"`
	Version     int64    `json:"version"`
	Funcs       []string `json:"funcs"`
	SourceBytes int      `json:"source_bytes"`
}

// PersistEntry is the durable form of one registered script: name and
// source. Recovery re-Puts the source, re-compiling it — programs are never
// serialized, only their text.
type PersistEntry struct {
	Name   string
	Source string
}

// SpecBinding is the durable description of one scripted structure: which
// script's functions extract the partition key and the index keys of which
// base file. It is what POST /v1/structures accepts and what snapshot meta
// persists so recovery can re-register the spec and re-adopt the built
// structure without a rebuild.
type SpecBinding struct {
	// Structure is the structure (index file) name.
	Structure string `json:"structure"`
	// Base is the catalog name of the file to index.
	Base string `json:"base"`
	// Kind is "local" or "global" ("" means local).
	Kind string `json:"kind"`
	// Partitions is the index partition count; 0 copies the base file's.
	Partitions int `json:"partitions"`
	// Script names the registered script providing the extractors.
	Script string `json:"script"`
	// PartKeyFn is the script function extracting the partition key.
	PartKeyFn string `json:"partkey_fn"`
	// KeysFn is the script function emitting the index key(s).
	KeysFn string `json:"keys_fn"`
}

// Registry holds named scripts and the structure bindings built from them.
// All methods are safe for concurrent use.
type Registry struct {
	limits Limits

	mu       sync.Mutex
	version  int64
	scripts  map[string]*Handle
	bindings map[string]SpecBinding
}

// NewRegistry returns an empty registry whose adapters run under lim (zero
// selects the package defaults).
func NewRegistry(lim Limits) *Registry {
	return &Registry{
		limits:   lim.withDefaults(),
		scripts:  map[string]*Handle{},
		bindings: map[string]SpecBinding{},
	}
}

func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("script: name must be 1–128 characters")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c == '-' || c == '.' || c >= 'a' && c <= 'z' ||
			c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			continue
		}
		return fmt.Errorf("script: name %q contains %q; use letters, digits, _ - .", name, string(c))
	}
	return nil
}

// Put compiles src and registers it under name, returning the new Handle.
// Compilation failure leaves any existing version untouched.
func (r *Registry) Put(name, src string) (*Handle, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.version++
	h := &Handle{Name: name, Version: r.version, prog: prog}
	r.scripts[name] = h
	return h, nil
}

// Get resolves the current Handle for name.
func (r *Registry) Get(name string) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.scripts[name]
	return h, ok
}

// Delete removes name and any bindings that reference it. Structures
// already built from the script keep their captured programs (a build is a
// value, not a reference); Delete only stops new bindings and drops the
// persisted ones. It reports whether the script existed.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.scripts[name]; !ok {
		return false
	}
	delete(r.scripts, name)
	for structure, b := range r.bindings {
		if b.Script == name {
			delete(r.bindings, structure)
		}
	}
	return true
}

// Len returns the number of registered scripts.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.scripts)
}

// List summarizes every registered script, sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.scripts))
	for _, h := range r.scripts {
		out = append(out, Info{
			Name:        h.Name,
			Version:     h.Version,
			Funcs:       h.prog.Funcs(),
			SourceBytes: len(h.prog.Source()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PersistScripts snapshots every registered script's source, sorted by
// name, for checkpointing.
func (r *Registry) PersistScripts() []PersistEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PersistEntry, 0, len(r.scripts))
	for _, h := range r.scripts {
		out = append(out, PersistEntry{Name: h.Name, Source: h.prog.Source()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Bind validates b against the current version of its script and returns
// the indexer.Spec a structure manager can register and build. The spec's
// extractor closures capture the script's compiled program at Bind time: a
// later Put of the same script name cannot change the spec's semantics —
// rebind to pick up the new version. The binding is recorded for
// persistence (replacing any previous binding of the structure).
func (r *Registry) Bind(b SpecBinding) (indexer.Spec, error) {
	spec, err := r.specFor(b)
	if err != nil {
		return indexer.Spec{}, err
	}
	r.mu.Lock()
	r.bindings[b.Structure] = b
	r.mu.Unlock()
	return spec, nil
}

// specFor resolves b to a Spec without recording the binding.
func (r *Registry) specFor(b SpecBinding) (indexer.Spec, error) {
	if b.Structure == "" || b.Base == "" {
		return indexer.Spec{}, fmt.Errorf("script: binding needs structure and base (got %q over %q)", b.Structure, b.Base)
	}
	var kind indexer.Kind
	switch b.Kind {
	case "", "local":
		kind = indexer.Local
	case "global":
		kind = indexer.Global
	default:
		return indexer.Spec{}, fmt.Errorf("script: binding kind %q, want local or global", b.Kind)
	}
	if b.Partitions < 0 {
		return indexer.Spec{}, fmt.Errorf("script: binding partitions %d, want >= 0", b.Partitions)
	}
	h, ok := r.Get(b.Script)
	if !ok {
		return indexer.Spec{}, fmt.Errorf("script: no script %q registered", b.Script)
	}
	partKey, err := h.prog.PartKeyFunc(b.PartKeyFn, r.limits)
	if err != nil {
		return indexer.Spec{}, fmt.Errorf("script: %s: %w", b.Script, err)
	}
	keys, err := h.prog.KeysFunc(b.KeysFn, r.limits)
	if err != nil {
		return indexer.Spec{}, fmt.Errorf("script: %s: %w", b.Script, err)
	}
	return indexer.Spec{
		Name:       b.Structure,
		Base:       b.Base,
		Kind:       kind,
		Partitions: b.Partitions,
		PartKey:    partKey,
		Keys:       keys,
	}, nil
}

// Binding returns the recorded binding of a structure, if any.
func (r *Registry) Binding(structure string) (SpecBinding, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[structure]
	return b, ok
}

// RestoreBinding re-records a binding previously captured with Binding,
// without re-validating it against the current script versions. It exists
// for failure-path rollback: a caller whose Bind replaced a binding and then
// failed downstream puts the replaced one back.
func (r *Registry) RestoreBinding(b SpecBinding) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bindings[b.Structure] = b
}

// Unbind drops the persisted binding of a structure (the structure itself,
// if built, is untouched). It reports whether a binding existed.
func (r *Registry) Unbind(structure string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.bindings[structure]
	delete(r.bindings, structure)
	return ok
}

// Bindings snapshots the recorded structure bindings, sorted by structure
// name, for checkpointing.
func (r *Registry) Bindings() []SpecBinding {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpecBinding, 0, len(r.bindings))
	for _, b := range r.bindings {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Structure < out[j].Structure })
	return out
}
