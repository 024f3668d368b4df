package httpapi

// This file surfaces the script registry over HTTP — post-hoc access
// methods a client can register against a live server:
//
//	POST   /v1/scripts          compile-and-register a script (validate at POST)
//	GET    /v1/scripts          list registered scripts
//	GET    /v1/scripts/{name}   one script's info, source, and per-function
//	                            calls and steps
//	DELETE /v1/scripts/{name}   drop a script (and its structure bindings)
//	POST   /v1/structures       register + build a structure whose partition-key
//	                            and index-key extractors are script functions
//
// The endpoints answer 404 until a registry is attached with AttachScripts
// (POST /v1/structures additionally needs AttachStructures); the
// lakeharbor_script_* counters join /debug/metrics then.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"lakeharbor/internal/script"
)

// AttachScripts connects a script registry to the server, enabling the
// /v1/scripts endpoints, scripted POST /v1/structures, and the script
// counters in /debug/metrics.
func (s *Server) AttachScripts(reg *script.Registry) { s.scripts = reg }

// registry resolves the attached script registry, writing the error
// response itself when it returns nil.
func (s *Server) registry(w http.ResponseWriter) *script.Registry {
	if s.scripts == nil {
		writeError(w, http.StatusNotFound, errors.New("httpapi: no script registry attached"))
		return nil
	}
	return s.scripts
}

// ScriptPutRequest is the wire form of POST /v1/scripts.
type ScriptPutRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

func (s *Server) handleScriptPut(w http.ResponseWriter, r *http.Request) {
	reg := s.registry(w)
	if reg == nil {
		return
	}
	var req ScriptPutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad body: %w", err))
		return
	}
	h, err := reg.Put(req.Name, req.Source)
	if err != nil {
		// Validate-at-POST: a script that does not compile never enters the
		// registry, and the compile error goes back to the client verbatim.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, script.Info{
		Name:        h.Name,
		Version:     h.Version,
		Funcs:       h.Program().Funcs(),
		SourceBytes: len(h.Program().Source()),
	})
}

func (s *Server) handleScriptList(w http.ResponseWriter, r *http.Request) {
	reg := s.registry(w)
	if reg == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"scripts": reg.List()})
}

func (s *Server) handleScriptGet(w http.ResponseWriter, r *http.Request) {
	reg := s.registry(w)
	if reg == nil {
		return
	}
	name := r.PathValue("name")
	h, ok := reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("httpapi: no script %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    h.Name,
		"version": h.Version,
		"funcs":   h.Program().Funcs(),
		"source":  h.Program().Source(),
		"stats":   h.Program().Stats(),
	})
}

func (s *Server) handleScriptDelete(w http.ResponseWriter, r *http.Request) {
	reg := s.registry(w)
	if reg == nil {
		return
	}
	name := r.PathValue("name")
	if !reg.Delete(name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("httpapi: no script %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "status": "deleted"})
}

// handleStructureCreate registers a structure whose access method is a
// script: the binding resolves against the registry (capturing the current
// compiled program — later re-POSTs of the script do not affect it), the
// spec enters the lifecycle manager, and a background build starts.
func (s *Server) handleStructureCreate(w http.ResponseWriter, r *http.Request) {
	reg := s.registry(w)
	if reg == nil {
		return
	}
	m := s.manager(w)
	if m == nil {
		return
	}
	var b script.SpecBinding
	if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad body: %w", err))
		return
	}
	// Bind replaces any recorded binding for the structure, so capture the
	// previous one first: if the manager refuses the spec, nothing from this
	// request may survive — including the binding swap.
	prev, hadPrev := reg.Binding(b.Structure)
	spec, err := reg.Bind(b)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := m.Register(spec); err != nil {
		if hadPrev {
			reg.RestoreBinding(prev)
		} else {
			reg.Unbind(b.Structure)
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	state, err := m.Build(spec.Name)
	if err != nil {
		// Register succeeded, so the spec and binding stay in place: the
		// manager has no deregister, and a registered-but-unbuilt structure
		// is a valid state — a later POST or Ensure retries the build.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"name":   spec.Name,
		"script": b.Script,
		"state":  state.String(),
	})
}
