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
// claim id (the claim body does not repeat it).
func Parse(id int64, data []byte) (*Claim, error) {
	c, err := parse(id, data, keepSI|keepIY|keepSY)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// subRecords selects which repeated sub-records parse materializes.
type subRecords uint8

const (
	keepSI subRecords = 1 << iota
	keepIY
	keepSY
)

// parse is Parse keeping only the selected repeated sub-records. Every line
// is validated whatever is kept, so a query that needs one kind of
// sub-record rejects exactly the claims Parse rejects. The payload is copied
// once and every string of the claim is a substring of that copy.
func parse(id int64, data []byte, keep subRecords) (Claim, error) {
	c := Claim{ID: id}
	s := string(data)
	if keep&keepSI != 0 {
		c.SI = sized[SI](s, "\nSI,")
	}
	if keep&keepIY != 0 {
		c.IY = sized[IY](s, "\nIY,")
	}
	if keep&keepSY != 0 {
		c.SY = sized[SY](s, "\nSY,")
	}
	var sawIR, sawRE, sawHO bool
	var f [5]string
	lineNo := 0
	fail := func(err error) (Claim, error) {
		return Claim{}, fmt.Errorf("claims: line %d: %w", lineNo, err)
	}
	bad := func(what string) (Claim, error) {
		return Claim{}, fmt.Errorf("claims: line %d: %s", lineNo, what)
	}
	for s != "" {
		lineNo++
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if line == "" {
			continue
		}
		n := splitCommas(line, &f)
		switch f[0] {
		case "IR":
			if n < 4 {
				return bad("short IR record")
			}
			inst, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return fail(err)
			}
			typ, err := strconv.Atoi(f[2])
			if err != nil {
				return fail(err)
			}
			c.IR = IR{InstitutionID: inst, Type: typ, Name: f[3]}
			if typ == TypeDPC {
				if n < 5 {
					return bad("DPC claim missing DPC code")
				}
				c.IR.DPCCode = f[4]
			}
			sawIR = true
		case "RE":
			if n != 5 {
				return bad("bad RE record")
			}
			pid, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return fail(err)
			}
			age, err := strconv.Atoi(f[3])
			if err != nil {
				return fail(err)
			}
			c.RE = RE{PatientID: pid, Category: f[2], Age: age, Sex: f[4]}
			sawRE = true
		case "HO":
			if n != 3 {
				return bad("bad HO record")
			}
			ins, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return fail(err)
			}
			pts, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return fail(err)
			}
			c.HO = HO{InsurerID: ins, Points: pts}
			sawHO = true
		case "SI":
			if n != 4 {
				return bad("bad SI record")
			}
			pts, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return fail(err)
			}
			cnt, err := strconv.Atoi(f[3])
			if err != nil {
				return fail(err)
			}
			if keep&keepSI != 0 {
				c.SI = append(c.SI, SI{Code: f[1], Points: pts, Count: cnt})
			}
		case "IY":
			if n != 5 {
				return bad("bad IY record")
			}
			pts, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return fail(err)
			}
			cnt, err := strconv.Atoi(f[4])
			if err != nil {
				return fail(err)
			}
			if keep&keepIY != 0 {
				c.IY = append(c.IY, IY{Code: f[1], Class: f[2], Points: pts, Count: cnt})
			}
		case "SY":
			if n != 4 {
				return bad("bad SY record")
			}
			if keep&keepSY != 0 {
				c.SY = append(c.SY, SY{Code: f[1], Name: f[2], Main: f[3] == "1"})
			}
		default:
			return bad(fmt.Sprintf("unknown sub-record kind %q", f[0]))
		}
	}
	if !sawIR || !sawRE || !sawHO {
		return Claim{}, fmt.Errorf("claims: claim %d missing mandatory sub-records (IR=%v RE=%v HO=%v)", id, sawIR, sawRE, sawHO)
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

// splitCommas stores line's comma-separated fields in f and returns how many
// the line has; fields beyond len(f) are counted, not stored.
func splitCommas(line string, f *[5]string) int {
	n := 0
	for ; ; n++ {
		i := strings.IndexByte(line, ',')
		if i < 0 {
			break
		}
		if n < len(f) {
			f[n] = line[:i]
		}
		line = line[i+1:]
	}
	if n < len(f) {
		f[n] = line
	}
	return n + 1
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
