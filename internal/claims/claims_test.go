package claims

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

func TestRawParseRoundTrip(t *testing.T) {
	c := &Claim{
		ID: 42,
		IR: IR{InstitutionID: 7, Type: TypePiecework, Name: "Hospital-007"},
		RE: RE{PatientID: 99, Category: "outpatient", Age: 63, Sex: "F"},
		HO: HO{InsurerID: 3, Points: 12345},
		SI: []SI{{Code: "T00001", Points: 500, Count: 2}},
		IY: []IY{{Code: "M-AHT-001", Class: ClassAntihyper, Points: 120, Count: 14}},
		SY: []SY{{Code: DiseaseHypertension, Name: "hypertension", Main: true}, {Code: "B001", Name: "background", Main: false}},
	}
	got, err := Parse(42, []byte(c.Raw()))
	if err != nil {
		t.Fatal(err)
	}
	if got.IR != c.IR || got.RE != c.RE || got.HO != c.HO {
		t.Errorf("header round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	if len(got.SI) != 1 || got.SI[0] != c.SI[0] {
		t.Errorf("SI mismatch: %+v", got.SI)
	}
	if len(got.IY) != 1 || got.IY[0] != c.IY[0] {
		t.Errorf("IY mismatch: %+v", got.IY)
	}
	if len(got.SY) != 2 || got.SY[0] != c.SY[0] || got.SY[1] != c.SY[1] {
		t.Errorf("SY mismatch: %+v", got.SY)
	}
}

func TestDPCClaimDynamicLayout(t *testing.T) {
	c := &Claim{
		ID: 1,
		IR: IR{InstitutionID: 1, Type: TypeDPC, Name: "H", DPCCode: "DPC0042"},
		RE: RE{PatientID: 1, Category: "inpatient", Age: 70, Sex: "M"},
		HO: HO{InsurerID: 1, Points: 100},
		SY: []SY{{Code: "Z000", Name: "checkup", Main: true}},
	}
	raw := c.Raw()
	if !strings.Contains(raw, "DPC0042") {
		t.Fatal("DPC code not rendered")
	}
	got, err := Parse(1, []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.IR.DPCCode != "DPC0042" || got.IR.Type != TypeDPC {
		t.Errorf("DPC round trip: %+v", got.IR)
	}
	// A piecework claim has a shorter IR sub-record — dynamically defined.
	c.IR.Type = TypePiecework
	c.IR.DPCCode = ""
	if strings.Contains(c.Raw(), "DPC0042") {
		t.Error("piecework claim rendered a DPC code")
	}
}

// TestSubRecordsFitNoFlatSchema keeps §IV's negative result: the sub-record
// lines of a seeded corpus do not share one field count, so no fixed flat
// (columnar) schema fits them — the lake must keep them schema-on-read.
func TestSubRecordsFitNoFlatSchema(t *testing.T) {
	corpus := Generate(Config{Claims: 50, Seed: 4})
	widths := map[int]string{} // field count → a sub-record kind that has it
	for _, c := range corpus.Claims {
		for _, line := range strings.Split(strings.TrimRight(c.Raw(), "\n"), "\n") {
			fields := strings.Split(line, ",")
			widths[len(fields)] = fields[0]
		}
	}
	if len(widths) < 2 {
		t.Fatalf("every sub-record line has the same field count (%v): a fixed flat schema would fit, which §IV says it cannot", widths)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown kind":     "XX,1,2\n",
		"short IR":         "IR,1\n",
		"DPC missing code": "IR,1,2,H\nRE,1,outpatient,5,F\nHO,1,100\n",
		"bad RE":           "IR,1,1,H\nRE,oops\nHO,1,100\n",
		"bad HO points":    "IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,xyz\n",
		"bad SI":           "IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,1\nSI,T,a,b\n",
		"bad IY":           "IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,1\nIY,M,C,a,b\n",
		"bad SY":           "IR,1,1,H\nRE,1,outpatient,5,F\nHO,1,1\nSY,onlytwo\n",
		"missing HO":       "IR,1,1,H\nRE,1,outpatient,5,F\n",
		"empty":            "",
	}
	for name, raw := range cases {
		if _, err := Parse(1, []byte(raw)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, raw)
		}
	}
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	a := Generate(Config{Claims: 500, Seed: 9})
	b := Generate(Config{Claims: 500, Seed: 9})
	if len(a.Claims) != 500 || len(b.Claims) != 500 {
		t.Fatal("wrong corpus size")
	}
	for i := range a.Claims {
		if a.Claims[i].Raw() != b.Claims[i].Raw() {
			t.Fatalf("claim %d not deterministic", i)
		}
	}
	// Prevalences are in the right ballpark.
	htn := 0
	for _, c := range a.Claims {
		if c.HasDisease(DiseaseHypertension) {
			htn++
		}
		if len(c.SY) == 0 {
			t.Fatal("claim without any diagnosis")
		}
		if _, err := Parse(c.ID, []byte(c.Raw())); err != nil {
			t.Fatalf("generated claim does not parse: %v", err)
		}
	}
	if htn < 50 || htn > 150 {
		t.Errorf("hypertension prevalence %d/500, want ~100", htn)
	}
	// Default size applies.
	if got := Generate(Config{Seed: 1}); len(got.Claims) != 1000 {
		t.Errorf("default corpus size = %d", len(got.Claims))
	}
}

func TestParseRoundTripQuick(t *testing.T) {
	corpus := Generate(Config{Claims: 200, Seed: 3})
	f := func(idx uint16) bool {
		c := corpus.Claims[int(idx)%len(corpus.Claims)]
		got, err := Parse(c.ID, []byte(c.Raw()))
		if err != nil {
			return false
		}
		return got.Raw() == c.Raw()
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// loadBoth prepares both systems on separate clusters so record-access
// counts do not mix.
func loadBoth(t testing.TB, nClaims, nodes int) (lakeC, whC *dfs.Cluster, corpus *Corpus) {
	t.Helper()
	ctx := context.Background()
	corpus = Generate(Config{Claims: nClaims, Seed: 11})
	lakeC = dfs.NewCluster(dfs.Config{Nodes: nodes})
	if err := LoadLake(ctx, lakeC, corpus, 0); err != nil {
		t.Fatal(err)
	}
	whC = dfs.NewCluster(dfs.Config{Nodes: nodes})
	if err := LoadWarehouse(ctx, whC, corpus, 0); err != nil {
		t.Fatal(err)
	}
	return lakeC, whC, corpus
}

func TestLoadLakeCounts(t *testing.T) {
	lakeC, whC, corpus := loadBoth(t, 300, 2)
	if n, _ := lakeC.Len(FileClaims); n != 300 {
		t.Errorf("claims file has %d records", n)
	}
	// Disease index: one entry per distinct disease per claim.
	wantIdx := 0
	wantDis := 0
	wantMed := 0
	wantTreat := 0
	for _, c := range corpus.Claims {
		seen := map[string]bool{}
		for _, d := range c.SY {
			if !seen[d.Code] {
				seen[d.Code] = true
				wantIdx++
			}
		}
		wantDis += len(c.SY)
		wantMed += len(c.IY)
		wantTreat += len(c.SI)
	}
	if n, _ := lakeC.Len(IdxClaimsDise); n != wantIdx {
		t.Errorf("disease index has %d entries, want %d", n, wantIdx)
	}
	if n, _ := whC.Len(FileWClaims); n != 300 {
		t.Errorf("w_claims has %d rows", n)
	}
	if n, _ := whC.Len(FileWDiseases); n != wantDis {
		t.Errorf("w_diseases has %d rows, want %d", n, wantDis)
	}
	if n, _ := whC.Len(FileWMedicines); n != wantMed {
		t.Errorf("w_medicines has %d rows, want %d", n, wantMed)
	}
	if n, _ := whC.Len(FileWTreats); n != wantTreat {
		t.Errorf("w_treatments has %d rows, want %d", n, wantTreat)
	}
	if n, _ := whC.Len(IdxWDiseCode); n != wantDis {
		t.Errorf("w disease-code index has %d entries, want %d", n, wantDis)
	}
}

func TestQueriesMatchOracleBothSystems(t *testing.T) {
	ctx := context.Background()
	lakeC, whC, corpus := loadBoth(t, 800, 3)
	for _, q := range Queries {
		wantClaims, wantExpense := corpus.Oracle(q.Disease, q.MedicineClass)

		rd, err := RunReDe(ctx, lakeC, q, core.Options{Threads: 64})
		if err != nil {
			t.Fatalf("%s ReDe: %v", q.Name, err)
		}
		if rd.Claims != wantClaims || rd.Expense != wantExpense {
			t.Errorf("%s ReDe = (%d, %d), oracle (%d, %d)", q.Name, rd.Claims, rd.Expense, wantClaims, wantExpense)
		}

		wh, err := RunWarehouse(ctx, whC, q, core.Options{Threads: 64})
		if err != nil {
			t.Fatalf("%s warehouse: %v", q.Name, err)
		}
		if wh.Claims != wantClaims || wh.Expense != wantExpense {
			t.Errorf("%s warehouse = (%d, %d), oracle (%d, %d)", q.Name, wh.Claims, wh.Expense, wantClaims, wantExpense)
		}

		// Fig. 9's claim: the normalized system touches significantly
		// more records than schema-on-read over nested claims.
		if wantClaims > 0 && rd.RecordAccesses >= wh.RecordAccesses {
			t.Errorf("%s: ReDe accessed %d records, warehouse %d — expected ReDe < warehouse",
				q.Name, rd.RecordAccesses, wh.RecordAccesses)
		}
		if rd.RecordAccesses == 0 && wantClaims > 0 {
			t.Errorf("%s: ReDe record accesses not counted", q.Name)
		}
	}
}

func TestHasHelpers(t *testing.T) {
	c := &Claim{
		SY: []SY{{Code: "A"}, {Code: "B"}},
		IY: []IY{{Class: "X"}},
	}
	if !c.HasDisease("A") || !c.HasDisease("B") || c.HasDisease("C") {
		t.Error("HasDisease wrong")
	}
	if !c.HasMedicineClass("X") || c.HasMedicineClass("Y") {
		t.Error("HasMedicineClass wrong")
	}
}

func TestOracle(t *testing.T) {
	corpus := &Corpus{Claims: []*Claim{
		{ID: 1, HO: HO{Points: 100}, SY: []SY{{Code: "D"}}, IY: []IY{{Class: "C"}}},
		{ID: 2, HO: HO{Points: 50}, SY: []SY{{Code: "D"}}},
		{ID: 3, HO: HO{Points: 10}, IY: []IY{{Class: "C"}}},
	}}
	n, e := corpus.Oracle("D", "C")
	if n != 1 || e != 100 {
		t.Errorf("Oracle = (%d, %d), want (1, 100)", n, e)
	}
}

func TestDataLakeArmMatchesOracleAndScansEverything(t *testing.T) {
	ctx := context.Background()
	lakeC, _, corpus := loadBoth(t, 600, 2)
	for _, q := range Queries {
		wantClaims, wantExpense := corpus.Oracle(q.Disease, q.MedicineClass)
		res, err := RunDataLake(ctx, lakeC, q, 4)
		if err != nil {
			t.Fatalf("%s data lake: %v", q.Name, err)
		}
		if res.Claims != wantClaims || res.Expense != wantExpense {
			t.Errorf("%s data lake = (%d, %d), oracle (%d, %d)",
				q.Name, res.Claims, res.Expense, wantClaims, wantExpense)
		}
		// The footnote's reason: a full scan touches every claim, so its
		// record accesses dwarf the index-based arms regardless of
		// selectivity.
		if res.RecordAccesses < 600 {
			t.Errorf("%s data lake accessed %d records; a full scan must touch all 600",
				q.Name, res.RecordAccesses)
		}
		rd, err := RunReDe(ctx, lakeC, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rd.RecordAccesses >= res.RecordAccesses {
			t.Errorf("%s: ReDe (%d accesses) should touch fewer records than the scan (%d)",
				q.Name, rd.RecordAccesses, res.RecordAccesses)
		}
	}
}

// TestMalformedClaimFailsTheJob: the queries read only what they need from a
// claim but validate all of it — a claim with a bad treatment line fails the
// ReDe job (whose filter reads only the medicines) and the scan, with the
// error text the reference parser gives.
func TestMalformedClaimFailsTheJob(t *testing.T) {
	ctx := context.Background()
	lakeC, _, corpus := loadBoth(t, 300, 5)
	var victim *Claim
	for _, c := range corpus.Claims {
		if c.HasDisease(Q1.Disease) {
			victim = c
			break
		}
	}
	// A second record under the victim's key: the disease index already
	// points at it, so Q1 dereferences the bad claim too.
	bad := []byte(victim.Raw() + "SI,T00001,oops,1\n")
	_, want := refParse(victim.ID, bad)
	f, err := lakeC.File(FileClaims)
	if err != nil {
		t.Fatal(err)
	}
	k := ClaimKey(victim.ID)
	if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunReDe(ctx, lakeC, Q1, core.Options{Threads: 8}); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("ReDe over a malformed claim: %v; want an error holding %q", err, want)
	}
	if _, err := RunDataLake(ctx, lakeC, Q1, 2); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("scan over a malformed claim: %v; want an error holding %q", err, want)
	}
}
