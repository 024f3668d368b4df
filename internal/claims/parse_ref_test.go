package claims

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
)

// refParse is the strings.Split parser Parse replaced, kept as the reference
// the single-pass parser is held to: same claims, same error text.
func refParse(id int64, data []byte) (*Claim, error) {
	c := &Claim{ID: id}
	var sawIR, sawRE, sawHO bool
	for lineNo, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		bad := func(what string) (*Claim, error) {
			return nil, fmt.Errorf("claims: line %d: %s", lineNo+1, what)
		}
		num := func(s string) (int64, error) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("claims: line %d: %w", lineNo+1, err)
			}
			return n, nil
		}
		atoi := func(s string) (int, error) {
			n, err := strconv.Atoi(s)
			if err != nil {
				return 0, fmt.Errorf("claims: line %d: %w", lineNo+1, err)
			}
			return n, nil
		}
		switch f[0] {
		case "IR":
			if len(f) < 4 {
				return bad("short IR record")
			}
			inst, err := num(f[1])
			if err != nil {
				return nil, err
			}
			typ, err := atoi(f[2])
			if err != nil {
				return nil, err
			}
			c.IR = IR{InstitutionID: inst, Type: typ, Name: f[3]}
			if typ == TypeDPC {
				if len(f) < 5 {
					return bad("DPC claim missing DPC code")
				}
				c.IR.DPCCode = f[4]
			}
			sawIR = true
		case "RE":
			if len(f) != 5 {
				return bad("bad RE record")
			}
			pid, err := num(f[1])
			if err != nil {
				return nil, err
			}
			age, err := atoi(f[3])
			if err != nil {
				return nil, err
			}
			c.RE = RE{PatientID: pid, Category: f[2], Age: age, Sex: f[4]}
			sawRE = true
		case "HO":
			if len(f) != 3 {
				return bad("bad HO record")
			}
			ins, err := num(f[1])
			if err != nil {
				return nil, err
			}
			pts, err := num(f[2])
			if err != nil {
				return nil, err
			}
			c.HO = HO{InsurerID: ins, Points: pts}
			sawHO = true
		case "SI":
			if len(f) != 4 {
				return bad("bad SI record")
			}
			pts, err := num(f[2])
			if err != nil {
				return nil, err
			}
			cnt, err := atoi(f[3])
			if err != nil {
				return nil, err
			}
			c.SI = append(c.SI, SI{Code: f[1], Points: pts, Count: cnt})
		case "IY":
			if len(f) != 5 {
				return bad("bad IY record")
			}
			pts, err := num(f[3])
			if err != nil {
				return nil, err
			}
			cnt, err := atoi(f[4])
			if err != nil {
				return nil, err
			}
			c.IY = append(c.IY, IY{Code: f[1], Class: f[2], Points: pts, Count: cnt})
		case "SY":
			if len(f) != 4 {
				return bad("bad SY record")
			}
			c.SY = append(c.SY, SY{Code: f[1], Name: f[2], Main: f[3] == "1"})
		default:
			return bad(fmt.Sprintf("unknown sub-record kind %q", f[0]))
		}
	}
	if !sawIR || !sawRE || !sawHO {
		return nil, fmt.Errorf("claims: claim %d missing mandatory sub-records (IR=%v RE=%v HO=%v)", id, sawIR, sawRE, sawHO)
	}
	return c, nil
}

// TestParseMatchesSplitReference: over a seeded corpus, Parse builds the
// claim the Split parser built, and a partial parse is that claim minus the
// lists it was told not to keep.
func TestParseMatchesSplitReference(t *testing.T) {
	corpus := Generate(Config{Claims: 500, Seed: 1})
	for _, gen := range corpus.Claims {
		raw := []byte(gen.Raw())
		want, err := refParse(gen.ID, raw)
		if err != nil {
			t.Fatalf("claim %d: reference: %v", gen.ID, err)
		}
		got, err := Parse(gen.ID, raw)
		if err != nil {
			t.Fatalf("claim %d: %v", gen.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("claim %d:\n got %+v\nwant %+v", gen.ID, got, want)
		}
		if string(raw) != gen.Raw() {
			t.Fatalf("claim %d: Parse wrote to its input", gen.ID)
		}
		for keep := subRecords(0); keep <= keepSI|keepIY|keepSY; keep++ {
			part, err := parse(gen.ID, raw, keep)
			if err != nil {
				t.Fatalf("claim %d keep %03b: %v", gen.ID, keep, err)
			}
			w := *want
			if keep&keepSI == 0 {
				w.SI = nil
			}
			if keep&keepIY == 0 {
				w.IY = nil
			}
			if keep&keepSY == 0 {
				w.SY = nil
			}
			if !reflect.DeepEqual(part, w) {
				t.Fatalf("claim %d keep %03b:\n got %+v\nwant %+v", gen.ID, keep, part, w)
			}
		}
	}
}

// TestParseErrorsMatchSplitReference: every malformed claim is rejected with
// the reference's error text, whichever sub-records the caller keeps — a
// query that reads only the medicines still rejects a claim with a bad
// treatment line.
func TestParseErrorsMatchSplitReference(t *testing.T) {
	good := "IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,100\nSI,T1,10,1\nIY,M1,AHT,5,2\nSY,D1,flu,1\n"
	cases := []string{
		"",
		"\n\n",
		"XX,1,2\n",
		"IR,1\n",
		"IR,x,1,H\n",
		"IR,1,y,H\n",
		"IR,1,2,H\nRE,1,outpatient,5,F\nHO,1,100\n", // DPC without its code
		"IR,1,1,H\nRE,oops\nHO,1,100\n",
		"IR,1,1,H\nRE,1,outpatient,5,F,extra\nHO,1,100\n",
		"IR,1,1,H\nRE,p,outpatient,5,F\nHO,1,100\n",
		"IR,1,1,H\nRE,1,outpatient,old,F\nHO,1,100\n",
		"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1\n",
		"IR,1,1,H\nRE,1,outpatient,5,F\nHO,i,100\n",
		"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,xyz\n",
		good + "SI,T,a,1\n",
		good + "SI,T,1,b\n",
		good + "SI,T,1\n",
		good + "IY,M,C,a,1\n",
		good + "IY,M,C,1,b\n",
		good + "IY,M,C,1,2,3\n",
		good + "SY,onlytwo\n",
		good + "SY,a,b,1,extra\n",
		good + "\n\nZZ\n",
		"IR,1,1,H\nRE,1,outpatient,5,F\n",
		"RE,1,outpatient,5,F\nHO,1,100\n",
		"IR,1,1,H\nHO,1,100\n",
	}
	for _, raw := range cases {
		_, want := refParse(7, []byte(raw))
		if want == nil {
			t.Fatalf("reference accepted %q", raw)
		}
		for keep := subRecords(0); keep <= keepSI|keepIY|keepSY; keep++ {
			if _, err := parse(7, []byte(raw), keep); err == nil || err.Error() != want.Error() {
				t.Errorf("%q keep %03b: error %v, reference %v", raw, keep, err, want)
			}
		}
	}
	// And the accepted oddities stay accepted: blank lines, no final
	// newline, extra IR fields.
	for _, raw := range []string{good, strings.TrimSuffix(good, "\n"), "\n" + good + "\n\n", "IR,1,1,H,x,y\nRE,1,outpatient,5,F\nHO,1,100"} {
		want, err := refParse(7, []byte(raw))
		if err != nil {
			t.Fatalf("reference rejected %q: %v", raw, err)
		}
		if got, err := Parse(7, []byte(raw)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: got %+v, %v; reference %+v", raw, got, err, want)
		}
	}
}

// TestWarehouseViewsMatchSplitReference: for every normalized row of the
// corpus, each declared field of the row's view reads what strings.Split
// finds at its position, and a row with a field missing or added is rejected.
func TestWarehouseViewsMatchSplitReference(t *testing.T) {
	tables := []struct {
		interp core.Interpreter
		names  []string
	}{
		{InterpWClaim, []string{"claim_id", "institution", "patient", "expense"}},
		{InterpWDisease, []string{"claim_id", "disease_code", "main"}},
		{InterpWMedicine, []string{"claim_id", "med_code", "med_class", "med_points", "med_count"}},
	}
	check := func(table int, row string) {
		t.Helper()
		tb := tables[table]
		f, err := tb.interp(lake.Record{Data: []byte(row)})
		if err != nil {
			t.Fatalf("%q: %v", row, err)
		}
		ref := strings.Split(row, ",")
		for i, name := range tb.names {
			if got, ok := f.Get(name); !ok || got != ref[i] {
				t.Fatalf("%q: %s = %q, %v; reference %q", row, name, got, ok, ref[i])
			}
		}
		if v, ok := f.Get("no_such_field"); ok {
			t.Fatalf("%q: undeclared field reads %q", row, v)
		}
		for _, bad := range []string{strings.Join(ref[1:], ","), row + ",extra"} {
			if _, err := tb.interp(lake.Record{Data: []byte(bad)}); err == nil || !strings.Contains(err.Error(), "fields, want") {
				t.Fatalf("%q: error %v, want a field-count error", bad, err)
			}
		}
	}
	for _, c := range Generate(Config{Claims: 500, Seed: 1}).Claims {
		check(0, wClaimRow(c))
		for _, d := range c.SY {
			check(1, wDiseaseRow(c, d))
		}
		for _, y := range c.IY {
			check(2, wMedicineRow(c, y))
		}
	}
}

// typicalClaim is the corpus's middle: three treatments, two medicines, two
// diagnoses.
const typicalClaim = "IR,17,1,Hospital-017\nRE,4211,outpatient,54,F\nHO,12,18250\n" +
	"SI,T00417,120,1\nSI,T10233,980,2\nSI,T19001,45,1\n" +
	"IY,M-AHT-007,AHT,310,14\nIY,M-OTH-1234,OTH,95,7\n" +
	"SY,I10,hypertension,1\nSY,B123,background,0\n"

// TestParseAllocationBudget: the claim, one copy of the payload that every
// string of the claim is cut from, and one exactly-sized list per kind of
// repeated sub-record — not a slice per line and a string per field.
func TestParseAllocationBudget(t *testing.T) {
	data := []byte(typicalClaim)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := Parse(1, data); err != nil {
			t.Fatal(err)
		}
	}); got > 8 {
		t.Errorf("Parse allocates %.0f times on a typical claim, budget 8", got)
	}
	// What RunReDe's filter pays per claim: the payload copy and the
	// medicines.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := parse(1, data, keepIY); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("a medicines-only parse allocates %.0f times, budget 2", got)
	}
}

var sinkClaim *Claim

func BenchmarkClaimsParse(b *testing.B) {
	data := []byte(typicalClaim)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		c, err := Parse(1, data)
		if err != nil {
			b.Fatal(err)
		}
		sinkClaim = c
	}
}
