package claims

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
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

// generatedClasses is every therapeutic class the generator emits.
var generatedClasses = []string{ClassAntihyper, ClassAntimicrobial, ClassGLP1, ClassOther}

var diseaseKeys = DiseaseIndexSpec().Keys

// checkAgainstReference holds every entry point built on the walker — Parse,
// the queries' probe, the disease index's Keys — to refParse on one payload:
// the same accept/reject, the same error text, the same answers, and the
// input never written.
func checkAgainstReference(t testing.TB, id int64, raw []byte) {
	t.Helper()
	orig := string(raw)
	text := func(err error) string {
		if err == nil {
			return "<accepted>"
		}
		return err.Error()
	}
	want, wantErr := refParse(id, raw)
	rec := lake.Record{Key: ClaimKey(id), Data: raw}

	got, err := Parse(id, raw)
	if text(err) != text(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: Parse = %+v, %v; reference %+v, %v", orig, got, err, want, wantErr)
	}
	keys, err := diseaseKeys(rec)
	if text(err) != text(wantErr) {
		t.Fatalf("%q: Keys: error %v, reference %v", orig, err, wantErr)
	}
	// Ask for every class and disease the generator knows, every one the
	// claim itself names, and one nobody has.
	classes, diseases := append([]string{"", "no-such"}, generatedClasses...), []string{"", "no-such", DiseaseHypertension}
	var wantKeys []lake.Key
	if want != nil {
		for _, y := range want.IY {
			classes = append(classes, y.Class)
		}
		for _, d := range want.SY {
			diseases = append(diseases, d.Code)
			if k := DiseaseKey(d.Code); !slices.Contains(wantKeys, k) {
				wantKeys = append(wantKeys, k)
			}
		}
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("%q: Keys = %q, reference %q", orig, keys, wantKeys)
	}
	for _, class := range classes {
		for _, disease := range diseases {
			p, err := probeRecord(rec, class, disease)
			if text(err) != text(wantErr) {
				t.Fatalf("%q: probe(%q, %q): error %v, reference %v", orig, class, disease, err, wantErr)
			}
			if want == nil {
				continue
			}
			if p.hasClass != want.HasMedicineClass(class) || p.hasDisease != want.HasDisease(disease) || p.ho != want.HO {
				t.Fatalf("%q: probe(%q, %q) = %+v; reference %v, %v, %+v", orig, class, disease, p,
					want.HasMedicineClass(class), want.HasDisease(disease), want.HO)
			}
		}
	}
	if string(raw) != orig {
		t.Fatalf("%q: the input was written: now %q", orig, raw)
	}
}

// TestParseMatchesSplitReference: over a seeded corpus, Parse builds the
// claim the Split parser built, and the probe and the index keys answer from
// one borrowed pass what that claim answers — for every therapeutic class the
// generator emits and every disease the claim names.
func TestParseMatchesSplitReference(t *testing.T) {
	for _, gen := range Generate(Config{Claims: 500, Seed: 1}).Claims {
		raw := []byte(gen.Raw())
		if _, err := refParse(gen.ID, raw); err != nil {
			t.Fatalf("claim %d: reference: %v", gen.ID, err)
		}
		checkAgainstReference(t, gen.ID, raw)
	}
}

const goodClaim = "IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,100\nSI,T1,10,1\nIY,M1,AHT,5,2\nSY,D1,flu,1\n"

// malformedClaims are rejected by the reference, each for its own reason.
var malformedClaims = []string{
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
	goodClaim + "SI,T,a,1\n",
	goodClaim + "SI,T,1,b\n",
	goodClaim + "SI,T,1\n",
	goodClaim + "IY,M,C,a,1\n",
	goodClaim + "IY,M,C,1,b\n",
	goodClaim + "IY,M,C,1,2,3\n",
	goodClaim + "SY,onlytwo\n",
	goodClaim + "SY,a,b,1,extra\n",
	goodClaim + "\n\nZZ\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\n",
	"RE,1,outpatient,5,F\nHO,1,100\n",
	"IR,1,1,H\nHO,1,100\n",
	// The edges of the walker's digits-only number path, which hands every
	// field it does not take to strconv: empty, a bare sign, overflow at 19
	// and 20 digits, non-ASCII digits.
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,\n",
	"IR,,1,H\nRE,1,outpatient,5,F\nHO,1,100\n",
	"IR,1,1,H\nRE,1,outpatient,+,F\nHO,1,100\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,-,100\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,9223372036854775808\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,-9223372036854775809,1\n",
	goodClaim + "SI,T,1,99999999999999999999\n",
	"IR,1,1,H\nRE,1,outpatient,\u0665,F\nHO,1,100\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,\uff11\uff10\uff10\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,10 \n",
}

// oddClaims are the accepted oddities: blank lines, no final newline, extra
// IR fields.
var oddClaims = []string{goodClaim, strings.TrimSuffix(goodClaim, "\n"), "\n" + goodClaim + "\n\n", "IR,1,1,H,x,y\nRE,1,outpatient,5,F\nHO,1,100",
	// Numbers strconv reads and the digits-only path leaves to it: signs,
	// leading zeros, 18 and 19 digits, the int64 extremes.
	"IR,+5,+1,H\nRE,-5,outpatient,-5,F\nHO,+5,-5\n",
	"IR,007,01,H\nRE,0001,outpatient,005,F\nHO,00,000100\n" + "SI,T,0000000000000000000000042,007\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,999999999999999999,123456789012345678\n",
	"IR,1,1,H\nRE,1,outpatient,5,F\nHO,1000000000000000000,9223372036854775807\n",
	"IR,1,1,H\nRE,-9223372036854775808,outpatient,5,F\nHO,1,100\n" + "IY,M,C,9223372036854775807,9223372036854775807\n",
}

// TestParseErrorsMatchSplitReference: every malformed claim is rejected with
// the reference's error text through every entry point — a query that reads
// only the medicines still rejects a claim with a bad treatment line — and
// the accepted oddities stay accepted.
func TestParseErrorsMatchSplitReference(t *testing.T) {
	for _, raw := range malformedClaims {
		if _, err := refParse(7, []byte(raw)); err == nil {
			t.Fatalf("reference accepted %q", raw)
		}
		checkAgainstReference(t, 7, []byte(raw))
	}
	for _, raw := range oddClaims {
		if _, err := refParse(7, []byte(raw)); err != nil {
			t.Fatalf("reference rejected %q: %v", raw, err)
		}
		checkAgainstReference(t, 7, []byte(raw))
	}
}

// FuzzClaimsParse: on any payload the walker and refParse agree — accept or
// reject, error text, every answer — and nothing panics.
func FuzzClaimsParse(f *testing.F) {
	f.Add(int64(1), []byte(typicalClaim))
	for _, raw := range append(malformedClaims, oddClaims...) {
		f.Add(int64(7), []byte(raw))
	}
	for _, gen := range Generate(Config{Claims: 20, Seed: 3}).Claims {
		f.Add(gen.ID, []byte(gen.Raw()))
	}
	f.Fuzz(func(t *testing.T, id int64, raw []byte) {
		checkAgainstReference(t, id, raw)
	})
}

// TestParsedClaimOwnsItsMemory: Parse copies the payload, so the claim — and
// a rejected claim's error — is unchanged after the input buffer is reused.
func TestParsedClaimOwnsItsMemory(t *testing.T) {
	data := []byte(typicalClaim)
	want, _ := refParse(1, []byte(typicalClaim))
	got, err := Parse(1, data)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(goodClaim + "IY,M,C,oops,1\n")
	_, wantErr := refParse(1, bad)
	_, probeErr := probeRecord(lake.Record{Key: ClaimKey(1), Data: bad}, "C", "")
	for _, buf := range [][]byte{data, bad} {
		for i := range buf {
			buf[i] = 'X'
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("claim changed with its input buffer:\n got %+v\nwant %+v", got, want)
	}
	if probeErr == nil || probeErr.Error() != wantErr.Error() {
		t.Errorf("probe error %v after its input was overwritten, want %v", probeErr, wantErr)
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
	// What RunReDe's filter and Each pay per claim: nothing — the probe
	// walks a borrowed view and keeps no list.
	rec := lake.Record{Key: ClaimKey(1), Data: data}
	if got := testing.AllocsPerRun(200, func() {
		if p, err := probeRecord(rec, ClassAntihyper, ""); err != nil || !p.hasClass {
			t.Fatal(p, err)
		}
	}); got != 0 {
		t.Errorf("the medicines probe allocates %.0f times, budget 0", got)
	}
}

var (
	sinkClaim *Claim
	sinkProbe probe
)

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

func BenchmarkClaimsProbe(b *testing.B) {
	rec := lake.Record{Key: ClaimKey(1), Data: []byte(typicalClaim)}
	b.ReportAllocs()
	b.SetBytes(int64(len(rec.Data)))
	for i := 0; i < b.N; i++ {
		p, err := probeRecord(rec, ClassAntihyper, "")
		if err != nil {
			b.Fatal(err)
		}
		sinkProbe = p
	}
}

// BenchmarkClaimsProbeCorpus probes 20 000 generated claims in key order, as
// RunReDe's job visits a disease's claims: BenchmarkClaimsProbe's one warm
// claim stays in cache and repeats one branch history, so it understates
// the walk a job pays. ns/op is per claim.
func BenchmarkClaimsProbeCorpus(b *testing.B) {
	corpus := Generate(Config{Claims: 20_000, Seed: 1}).Claims
	slices.SortFunc(corpus, func(x, y *Claim) int { return cmp.Compare(x.ID, y.ID) })
	recs := make([]lake.Record, len(corpus))
	size := 0
	for i, c := range corpus {
		recs[i] = lake.Record{Key: ClaimKey(c.ID), Data: []byte(c.Raw())}
		size += len(recs[i].Data)
	}
	b.ReportAllocs()
	b.SetBytes(int64(size / len(recs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := probeRecord(recs[i%len(recs)], ClassAntihyper, "")
		if err != nil {
			b.Fatal(err)
		}
		sinkProbe = p
	}
}
