package claims

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
)

// Catalog names for the two systems of Fig. 9.
const (
	// LakeHarbor arm: raw claims plus a post hoc disease index.
	FileClaims    = "claims"
	IdxClaimsDise = "claims_disease_idx"

	// Warehouse arm: the claims normalized into relational tables.
	FileWClaims    = "w_claims"
	FileWDiseases  = "w_diseases"
	FileWMedicines = "w_medicines"
	FileWTreats    = "w_treatments"
	IdxWDiseCode   = "w_diseases_code_idx"
)

// ClaimKey encodes a claim id as a record key.
func ClaimKey(id int64) lake.Key { return keycodec.Int64(id) }

// DiseaseKey encodes a disease code as an index key.
func DiseaseKey(code string) lake.Key { return keycodec.String(code) }

// LoadLake stores the corpus the LakeHarbor way: whole claims in raw form,
// keyed and partitioned by claim id, plus a registered access method that
// lazily builds a global disease-code index (one entry per diagnosed
// disease of each claim — a multi-valued key extracted with
// schema-on-read).
func LoadLake(ctx context.Context, cluster *dfs.Cluster, corpus *Corpus, partitions int) error {
	if err := LoadLakeRaw(ctx, cluster, corpus, partitions); err != nil {
		return err
	}
	_, err := indexer.Build(ctx, cluster, DiseaseIndexSpec())
	return err
}

// LoadLakeRaw stores the raw claims but builds no structures: callers that
// put the disease index under lifecycle management (claimsbench -budget)
// register DiseaseIndexSpec with an indexer.Manager and let demand build it.
func LoadLakeRaw(ctx context.Context, cluster *dfs.Cluster, corpus *Corpus, partitions int) error {
	if partitions <= 0 {
		partitions = 2 * cluster.NumNodes()
	}
	f, err := cluster.CreateFile(FileClaims, dfs.Btree, partitions, lake.HashPartitioner{})
	if err != nil {
		return err
	}
	for _, c := range corpus.Claims {
		k := ClaimKey(c.ID)
		if err := dfs.AppendRouted(ctx, f, k, lake.Record{Key: k, Data: []byte(c.Raw())}); err != nil {
			return err
		}
	}
	return nil
}

// DiseaseIndexSpec is the access-method registration for the disease index:
// the schema-on-read functions that interpret a raw claim and emit its
// (partition key, index keys) pairs, per §III-D.
func DiseaseIndexSpec() indexer.Spec {
	return indexer.Spec{
		Name: IdxClaimsDise,
		Base: FileClaims,
		Kind: indexer.Global,
		PartKey: func(rec lake.Record) (lake.Key, error) {
			return rec.Key, nil // claims are partitioned by their own key
		},
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			id, err := keycodec.DecodeInt64(rec.Key)
			if err != nil {
				return nil, err
			}
			var keys []lake.Key // DiseaseKey copies the code out of the view
			w := walker{rest: view(rec.Data)}
			for w.next() {
				if w.kind != kindSY {
					continue
				}
				if k := DiseaseKey(w.f[1]); !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
			if err := w.finish(id); err != nil {
				return nil, err
			}
			return keys, nil
		},
	}
}

// Warehouse row renderers (comma-separated normalized rows).

func wClaimRow(c *Claim) string {
	return fmt.Sprintf("%d,%d,%d,%d", c.ID, c.IR.InstitutionID, c.RE.PatientID, c.HO.Points)
}

func wDiseaseRow(c *Claim, d SY) string {
	main := 0
	if d.Main {
		main = 1
	}
	return fmt.Sprintf("%d,%s,%d", c.ID, d.Code, main)
}

func wMedicineRow(c *Claim, y IY) string {
	return fmt.Sprintf("%d,%s,%s,%d,%d", c.ID, y.Code, y.Class, y.Points, y.Count)
}

func wTreatRow(c *Claim, s SI) string {
	return fmt.Sprintf("%d,%s,%d,%d", c.ID, s.Code, s.Points, s.Count)
}

// Warehouse row interpreters (schema-on-read over the normalized rows; the
// warehouse engine itself is the same fine-grained parallel executor).
var (
	InterpWClaim    = core.Delimited(FileWClaims, ',', "claim_id", "institution", "patient", "expense")
	InterpWDisease  = core.Delimited(FileWDiseases, ',', "claim_id", "disease_code", "main")
	InterpWMedicine = core.Delimited(FileWMedicines, ',', "claim_id", "med_code", "med_class", "med_points", "med_count")
)

// EncodeClaimID appends the key of a claim_id field value to dst (a
// core.FieldRef encoder).
func EncodeClaimID(dst []byte, v string) ([]byte, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return dst, fmt.Errorf("claims: bad claim id %q: %w", v, err)
	}
	return keycodec.AppendInt64(dst, n), nil
}

// LoadWarehouse normalizes the corpus into relational tables — the paper's
// first approach in §IV ("normalizing the data based on the relational
// model and storing it in a data warehouse system") — and builds the global
// disease-code index its plans probe. Child tables are partitioned by
// claim id and keyed by (claim id, seq) so a claim's rows are fetched by
// prefix range.
func LoadWarehouse(ctx context.Context, cluster *dfs.Cluster, corpus *Corpus, partitions int) error {
	if partitions <= 0 {
		partitions = 2 * cluster.NumNodes()
	}
	mk := func(name string) (lake.File, error) {
		return cluster.CreateFile(name, dfs.Btree, partitions, lake.HashPartitioner{})
	}
	wc, err := mk(FileWClaims)
	if err != nil {
		return err
	}
	wd, err := mk(FileWDiseases)
	if err != nil {
		return err
	}
	wm, err := mk(FileWMedicines)
	if err != nil {
		return err
	}
	wt, err := mk(FileWTreats)
	if err != nil {
		return err
	}
	for _, c := range corpus.Claims {
		ck := ClaimKey(c.ID)
		if err := dfs.AppendRouted(ctx, wc, ck, lake.Record{Key: ck, Data: []byte(wClaimRow(c))}); err != nil {
			return err
		}
		for i, d := range c.SY {
			k := keycodec.Tuple(ck, keycodec.Int64(int64(i)))
			if err := dfs.AppendRouted(ctx, wd, ck, lake.Record{Key: k, Data: []byte(wDiseaseRow(c, d))}); err != nil {
				return err
			}
		}
		for i, y := range c.IY {
			k := keycodec.Tuple(ck, keycodec.Int64(int64(i)))
			if err := dfs.AppendRouted(ctx, wm, ck, lake.Record{Key: k, Data: []byte(wMedicineRow(c, y))}); err != nil {
				return err
			}
		}
		for i, s := range c.SI {
			k := keycodec.Tuple(ck, keycodec.Int64(int64(i)))
			if err := dfs.AppendRouted(ctx, wt, ck, lake.Record{Key: k, Data: []byte(wTreatRow(c, s))}); err != nil {
				return err
			}
		}
	}
	_, err = indexer.Build(ctx, cluster, indexer.Spec{
		Name: IdxWDiseCode,
		Base: FileWDiseases,
		Kind: indexer.Global,
		PartKey: func(rec lake.Record) (lake.Key, error) {
			id, err := InterpWDisease.Field(rec, "claim_id")
			if err != nil {
				return "", err
			}
			var buf [8]byte
			k, err := EncodeClaimID(buf[:0], id)
			return lake.Key(k), err
		},
		Keys: func(rec lake.Record) ([]lake.Key, error) {
			code, err := InterpWDisease.Field(rec, "disease_code")
			if err != nil {
				return nil, err
			}
			return []lake.Key{DiseaseKey(code)}, nil
		},
	})
	return err
}
