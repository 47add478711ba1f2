package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"approxql"
	"approxql/internal/querygen"
	"approxql/internal/xmltree"
)

// hit is one element of a ranking: (doc, root, cost). Stored workloads have
// doc 0 throughout.
type hit struct {
	doc, root int
	cost      int64
}

// catQuery is one query of the catalogue with its expected ranking, computed
// by the oracle at the largest n the workload asks for.
type catQuery struct {
	class string
	text  string
	// model is the per-query cost model of a stored workload; serve
	// workloads share the server-side model.
	model    *approxql.CostModel
	expected []hit
}

// poolEntry is one request of the pool: a catalogue query at one n (0 means
// all results).
type poolEntry struct {
	id    int // index into pool.entries
	qi    int // index into pool.queries
	query string
	n     int
}

// pool is the fixed set of requests a workload draws from.
type pool struct {
	queries []catQuery
	entries []poolEntry
	// serverModel is the cost model the serve workloads' servers carry.
	serverModel *approxql.CostModel
}

// want returns the expected ranking of an entry: the prefix of its query's
// ranking. Rankings are totally ordered by (cost, doc, root), so the best n
// are a prefix of the best m for n <= m.
func (p *pool) want(e poolEntry) []hit {
	exp := p.queries[e.qi].expected
	if e.n > 0 && e.n < len(exp) {
		return exp[:e.n]
	}
	return exp
}

// hitsOf converts a single database's ranking.
func hitsOf(res []approxql.Result) []hit {
	out := make([]hit, len(res))
	for i, r := range res {
		out[i] = hit{root: int(r.Root), cost: int64(r.Cost)}
	}
	return out
}

func digest(hits []hit) string {
	h := sha256.New()
	for _, x := range hits {
		fmt.Fprintf(h, "%d,%d,%d;", x.doc, x.root, x.cost)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// oracle computes expected rankings through a path independent of every
// surface under test: an in-memory backend and the forced direct strategy.
type oracle struct {
	db     *approxql.Database
	corpus *approxql.Corpus
}

func (o oracle) rank(query string, n int, model *approxql.CostModel) ([]hit, error) {
	opts := []approxql.QueryOption{approxql.WithStrategy(approxql.Direct), approxql.WithCostModel(model)}
	if o.db != nil {
		res, err := o.db.Search(query, n, opts...)
		return hitsOf(res), err
	}
	res, err := o.corpus.Search(query, n, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]hit, len(res))
	for i, r := range res {
		out[i] = hit{doc: int(r.Doc), root: int(r.Root), cost: int64(r.Cost)}
	}
	return out, nil
}

// buildPool draws the workload's catalogue and computes every expected
// ranking. labels is a database over (a sample of) the fixture whose
// dictionaries the generator fills patterns from. A drawn query whose
// expected ranking is empty is dropped and redrawn, so every pool query has
// an answer to check. perClass overrides the workload's class size when
// positive (the self-test shrinks it).
func buildPool(w workload, labels *approxql.Database, o oracle, perClass int) (*pool, error) {
	if perClass <= 0 {
		perClass = w.perClass
	}
	// The oracle ranks once per query, at the largest n asked for; a
	// tie-tolerant check needs the whole ranking.
	maxN := 0
	for _, n := range w.nValues {
		if n == 0 || w.tieTolerant {
			maxN = 0
			break
		}
		maxN = max(maxN, n)
	}
	tree := labels.Tree()
	names := make([]string, 0, tree.Names.Len())
	for _, s := range tree.Names.Strings() {
		if s != xmltree.RootLabel {
			names = append(names, s)
		}
	}
	lost := w.unreachable()
	var terms []string
	for _, s := range tree.Terms.Strings() {
		if !lost[s] {
			terms = append(terms, s)
		}
	}
	qg, err := querygen.New(tree, catalogueSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(catalogueSeed))

	p := &pool{}
	renamings := w.renamings
	if w.serve {
		renamings = []int{serveRenamings}
		p.serverModel = approxql.NewCostModel()
	}
	seen := make(map[string]bool)
	for _, pat := range w.patterns {
		for _, ren := range renamings {
			name := fmt.Sprintf("%s/ren%d", pat.Name, ren)
			have := 0
			for draws := 0; have < perClass; draws++ {
				if draws > 200*perClass {
					return nil, fmt.Errorf("class %s: only %d of %d queries have answers after %d draws", name, have, perClass, draws)
				}
				gen := ren
				if w.serve {
					gen = 0
				}
				g, err := qg.Generate(pat, gen)
				if err != nil {
					return nil, err
				}
				text := g.Query.String()
				if seen[text] || touchesUnreachable(g, lost) {
					continue
				}
				model := g.Model
				if w.serve {
					// The server applies one model to every query: each
					// label gets its delete cost and renamings the first
					// time a kept or dropped draw mentions it.
					model = p.serverModel
					for _, l := range g.Query.Labels() {
						if model.DeleteCost(l.Name, l.Kind) < approxql.Inf {
							continue
						}
						model.SetDelete(l.Name, l.Kind, approxql.Cost(1+rng.Intn(9)))
						from := names
						if l.Kind == approxql.Text {
							from = terms
						}
						for i := 0; i < serveRenamings; i++ {
							if to := from[rng.Intn(len(from))]; to != l.Name {
								model.AddRenaming(l.Name, to, l.Kind, approxql.Cost(1+rng.Intn(9)))
							}
						}
					}
				}
				exp, err := o.rank(text, maxN, model)
				if err != nil {
					return nil, fmt.Errorf("oracle: %s: %w", text, err)
				}
				if len(exp) == 0 {
					continue
				}
				seen[text] = true
				have++
				p.queries = append(p.queries, catQuery{class: name, text: text, model: model, expected: exp})
			}
		}
	}
	for qi, q := range p.queries {
		for _, n := range w.nValues {
			p.entries = append(p.entries, poolEntry{id: len(p.entries), qi: qi, query: q.text, n: n})
		}
	}
	return p, nil
}

// touchesUnreachable reports whether a drawn query reads the posting of an
// unreachable term, directly or through a renaming of its own cost model.
func touchesUnreachable(g *querygen.Generated, lost map[string]bool) bool {
	for _, l := range g.Query.Labels() {
		if l.Kind != approxql.Text {
			continue
		}
		if lost[l.Name] {
			return true
		}
		for _, r := range g.Model.Renamings(l.Name, l.Kind) {
			if lost[r.To] {
				return true
			}
		}
	}
	return false
}

// expectedFile is the committed form of a pool's expected rankings: enough
// to notice that the oracle and the surface under test moved together.
type expectedFile struct {
	Workload      string          `json:"workload"`
	Scale         float64         `json:"scale"`
	CatalogueSeed int             `json:"catalogue_seed"`
	Queries       []expectedQuery `json:"queries"`
}

type expectedQuery struct {
	Class   string `json:"class"`
	Query   string `json:"query"`
	Count   int    `json:"count"`
	TopCost int64  `json:"top_cost"`
	Digest  string `json:"digest"`
}

func (p *pool) expectedFile(w workload, scale float64) expectedFile {
	ef := expectedFile{Workload: w.name, Scale: scale, CatalogueSeed: catalogueSeed}
	for _, q := range p.queries {
		ef.Queries = append(ef.Queries, expectedQuery{
			Class: q.class, Query: q.text, Count: len(q.expected),
			TopCost: q.expected[0].cost, Digest: digest(q.expected),
		})
	}
	return ef
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "benchmark", "expected", workload+".json")
}

func writeExpected(path string, ef expectedFile) error {
	data, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkExpected compares the oracle's rankings with the committed ones and
// returns the number of catalogue queries that differ. A file committed for
// another scale does not apply and is skipped.
func checkExpected(path string, got expectedFile) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var want expectedFile
	if err := json.Unmarshal(data, &want); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if want.Scale != got.Scale || want.CatalogueSeed != got.CatalogueSeed {
		return 0, nil
	}
	diff := 0
	if len(want.Queries) != len(got.Queries) {
		diff = abs(len(want.Queries) - len(got.Queries))
	}
	for i := 0; i < len(want.Queries) && i < len(got.Queries); i++ {
		if want.Queries[i] != got.Queries[i] {
			diff++
		}
	}
	return diff, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
