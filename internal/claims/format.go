// Package claims implements the paper's case study (§IV): analytics over
// Japanese public-healthcare insurance claims.
//
// A claim is a nested, dynamically-typed text record (Fig. 8): a sequence
// of sub-records whose format is selected by the two leading characters —
// IR (claiming institution; its own layout depends on the claim type,
// piecework vs DPC, so records are *dynamically defined*), RE (service
// category and patient), HO (total medical expenses), SI (treatments), IY
// (prescribed medicines), SY (diagnosed diseases). Formats like Parquet
// cannot express this; LakeHarbor stores the raw text and applies
// schema-on-read.
//
// The package provides a synthetic generator that reproduces the format and
// the query-relevant statistics, a schema-on-read parser, loaders for both
// systems compared in Fig. 9 — ReDe over raw claims, and a normalized
// relational warehouse — and queries Q1–Q3.
package claims

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Claim types carried in the IR sub-record (the paper: "the type attribute
// of an IR sub-record specifies if the record is a piecework or a DPC
// claim; hence, the records are dynamically defined").
const (
	TypePiecework = 1
	TypeDPC       = 2
)

// IR describes the claiming medical institution.
type IR struct {
	InstitutionID int64
	Type          int // TypePiecework or TypeDPC
	Name          string
	// DPCCode is present only on DPC claims — the dynamically defined
	// part of the format.
	DPCCode string
}

// RE describes the service category and patient.
type RE struct {
	PatientID int64
	Category  string // "inpatient" or "outpatient"
	Age       int
	Sex       string
}

// HO describes the total medical expenses charged.
type HO struct {
	InsurerID int64
	Points    int64 // total expense points
}

// SI is one medical treatment provided.
type SI struct {
	Code   string
	Points int64
	Count  int
}

// IY is one medicine prescribed.
type IY struct {
	Code   string
	Class  string // therapeutic class, e.g. "AHT" (antihypertensive)
	Points int64
	Count  int
}

// SY is one disease diagnosed.
type SY struct {
	Code string
	Name string
	Main bool
}

// Claim is one whole insurance claim: the unit stored (raw) in the lake.
type Claim struct {
	ID int64
	IR IR
	RE RE
	HO HO
	SI []SI
	IY []IY
	SY []SY
}

// Raw renders the claim in the nested sub-record text format of Fig. 8.
func (c *Claim) Raw() string {
	var b strings.Builder
	if c.IR.Type == TypeDPC {
		fmt.Fprintf(&b, "IR,%d,%d,%s,%s\n", c.IR.InstitutionID, c.IR.Type, c.IR.Name, c.IR.DPCCode)
	} else {
		fmt.Fprintf(&b, "IR,%d,%d,%s\n", c.IR.InstitutionID, c.IR.Type, c.IR.Name)
	}
	fmt.Fprintf(&b, "RE,%d,%s,%d,%s\n", c.RE.PatientID, c.RE.Category, c.RE.Age, c.RE.Sex)
	fmt.Fprintf(&b, "HO,%d,%d\n", c.HO.InsurerID, c.HO.Points)
	for _, s := range c.SI {
		fmt.Fprintf(&b, "SI,%s,%d,%d\n", s.Code, s.Points, s.Count)
	}
	for _, y := range c.IY {
		fmt.Fprintf(&b, "IY,%s,%s,%d,%d\n", y.Code, y.Class, y.Points, y.Count)
	}
	for _, d := range c.SY {
		main := 0
		if d.Main {
			main = 1
		}
		fmt.Fprintf(&b, "SY,%s,%s,%d\n", d.Code, d.Name, main)
	}
	return b.String()
}

// Parse interprets a raw claim with schema-on-read. id is the record key's
// claim id (the claim body does not repeat it). The payload is copied once
// and every string of the claim is a substring of that copy, so the claim
// owns its memory and may outlive data.
func Parse(id int64, data []byte) (*Claim, error) {
	s := string(data)
	c := &Claim{ID: id, SI: sized[SI](s, "\nSI,"), IY: sized[IY](s, "\nIY,"), SY: sized[SY](s, "\nSY,")}
	w := walker{rest: s}
	for w.next() {
		f := &w.f
		switch w.kind {
		case kindIR:
			c.IR = IR{InstitutionID: w.a, Type: int(w.b), Name: f[3]}
			if w.b == TypeDPC {
				c.IR.DPCCode = f[4]
			}
		case kindRE:
			c.RE = RE{PatientID: w.a, Category: f[2], Age: int(w.b), Sex: f[4]}
		case kindHO:
			c.HO = HO{InsurerID: w.a, Points: w.b}
		case kindSI:
			c.SI = append(c.SI, SI{Code: f[1], Points: w.a, Count: int(w.b)})
		case kindIY:
			c.IY = append(c.IY, IY{Code: f[1], Class: f[2], Points: w.a, Count: int(w.b)})
		case kindSY:
			c.SY = append(c.SY, SY{Code: f[1], Name: f[2], Main: f[3] == "1"})
		}
	}
	if err := w.finish(id); err != nil {
		return nil, err
	}
	return c, nil
}

// sized returns an empty list with room for every line of s that starts a
// sub-record of one kind (a hint: a claim opening with that kind is one
// short, and grows), or nil when there is none.
func sized[T any](s, lineStart string) []T {
	if n := strings.Count(s, lineStart); n > 0 {
		return make([]T, 0, n)
	}
	return nil
}

// view returns data's bytes as a string without copying them. The string is
// borrowed: it is valid only for the call that was handed data, must never
// be stored, and nothing cut from it may be returned (DESIGN.md §4 — dfs
// shares Record.Data with its B-trees, so the bytes are read-only and may
// change once the call returns).
func view(data []byte) string { return unsafe.String(unsafe.SliceData(data), len(data)) }

// The sub-record kinds a walker reports.
const (
	kindIR = iota
	kindRE
	kindHO
	kindSI
	kindIY
	kindSY
)

// walker is the one validating pass over a raw claim, one sub-record per
// next: every line is checked whatever the caller reads from it, so a query
// that needs only the medicines rejects exactly the claims Parse rejects,
// with the same error. It allocates nothing; callers answer their question
// from kind, f, a and b as the lines go by. Over a borrowed view the fields
// are borrowed too.
type walker struct {
	rest   string // the lines not yet walked
	lineNo int
	saw    uint8 // bit 1<<kind is set once a sub-record of that kind passed
	err    error

	kind int       // of the line next accepted
	f    [5]string // its first five comma-separated fields
	a, b int64     // its two numeric fields, in line order (SY has none)
}

// next advances to the next non-blank line and validates it, reporting false
// at the end of the claim or at its first bad line (see finish).
func (w *walker) next() bool {
	for w.rest != "" {
		w.lineNo++
		s := w.rest
		n, start, i := 0, 0, 0
		for ; i < len(s); i++ {
			if c := s[i]; c > ',' {
				continue // letters and digits: one test per byte
			} else if c == '\n' {
				break
			} else if c == ',' {
				if n < len(w.f) {
					w.f[n] = s[start:i]
				}
				n, start = n+1, i+1
			}
		}
		if n < len(w.f) {
			w.f[n] = s[start:i]
		}
		w.rest = s[min(i+1, len(s)):]
		if i > 0 {
			w.err = w.validate(n + 1)
			return w.err == nil
		}
	}
	return false
}

// validate checks the line whose n fields next split into f.
func (w *walker) validate(n int) (err error) {
	f := &w.f
	var bad string
	switch f[0] {
	case "IR":
		w.kind = kindIR
		if n < 4 {
			bad = "short IR record"
		} else if w.a, err = strconv.ParseInt(f[1], 10, 64); err == nil {
			if w.b, err = atoi(f[2]); err == nil && w.b == TypeDPC && n < 5 {
				bad = "DPC claim missing DPC code"
			}
		}
	case "RE":
		w.kind = kindRE
		if n != 5 {
			bad = "bad RE record"
		} else if w.a, err = strconv.ParseInt(f[1], 10, 64); err == nil {
			w.b, err = atoi(f[3])
		}
	case "HO":
		w.kind = kindHO
		if n != 3 {
			bad = "bad HO record"
		} else if w.a, err = strconv.ParseInt(f[1], 10, 64); err == nil {
			w.b, err = strconv.ParseInt(f[2], 10, 64)
		}
	case "SI":
		w.kind = kindSI
		if n != 4 {
			bad = "bad SI record"
		} else if w.a, err = strconv.ParseInt(f[2], 10, 64); err == nil {
			w.b, err = atoi(f[3])
		}
	case "IY":
		w.kind = kindIY
		if n != 5 {
			bad = "bad IY record"
		} else if w.a, err = strconv.ParseInt(f[3], 10, 64); err == nil {
			w.b, err = atoi(f[4])
		}
	case "SY":
		w.kind = kindSY
		if n != 4 {
			bad = "bad SY record"
		}
	default:
		bad = fmt.Sprintf("unknown sub-record kind %q", f[0])
	}
	switch {
	case bad != "":
		return fmt.Errorf("claims: line %d: %s", w.lineNo, bad)
	case err != nil:
		return fmt.Errorf("claims: line %d: %w", w.lineNo, err)
	}
	w.saw |= 1 << w.kind
	return nil
}

// atoi is strconv.Atoi widened, so a line's numbers share two fields.
func atoi(s string) (int64, error) {
	n, err := strconv.Atoi(s)
	return int64(n), err
}

// finish reports how the walk ended: the bad line's error, or a claim (id
// names it) that ended without its mandatory sub-records.
func (w *walker) finish(id int64) error {
	const mandatory = 1<<kindIR | 1<<kindRE | 1<<kindHO
	if w.err == nil && w.saw&mandatory != mandatory {
		return fmt.Errorf("claims: claim %d missing mandatory sub-records (IR=%v RE=%v HO=%v)",
			id, w.saw&(1<<kindIR) != 0, w.saw&(1<<kindRE) != 0, w.saw&(1<<kindHO) != 0)
	}
	return w.err
}

// probe is what one walk over a stored claim answers for the queries.
type probe struct {
	hasClass, hasDisease bool
	ho                   HO
}

// probeRecord walks a stored claim — its id is the record key — over a
// borrowed view of the payload: whether it prescribes a medicine of class,
// whether it diagnoses disease, and what it charged. It validates what Parse
// validates and allocates nothing.
func probeRecord(rec lake.Record, class, disease string) (p probe, err error) {
	id, err := keycodec.DecodeInt64(rec.Key)
	if err != nil {
		return p, err
	}
	w := walker{rest: view(rec.Data)}
	for w.next() {
		switch w.kind {
		case kindHO:
			p.ho = HO{InsurerID: w.a, Points: w.b}
		case kindIY:
			p.hasClass = p.hasClass || w.f[2] == class
		case kindSY:
			p.hasDisease = p.hasDisease || w.f[1] == disease
		}
	}
	return p, w.finish(id)
}

// HasDisease reports whether any SY sub-record carries the code.
func (c *Claim) HasDisease(code string) bool {
	for _, d := range c.SY {
		if d.Code == code {
			return true
		}
	}
	return false
}

// HasMedicineClass reports whether any IY sub-record carries the
// therapeutic class.
func (c *Claim) HasMedicineClass(class string) bool {
	for _, y := range c.IY {
		if y.Class == class {
			return true
		}
	}
	return false
}
