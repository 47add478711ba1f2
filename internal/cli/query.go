package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"approxql"
)

// Query is the axql entry point: it evaluates one approXQL query against a
// collection and prints the ranked results.
func Query(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath    = fs.String("db", "", "collection file or bundle manifest built by axqlindex (a bundle queries the stored indexes)")
		xml       = fs.String("xml", "", "comma-separated XML files to index on the fly")
		cache     = fs.Int("cache", 0, "posting-cache entries for stored indexes (0 = default 4096, negative disables caching)")
		mmap      = fs.Bool("mmap", false, "serve stored index pages from read-only memory mappings (falls back to the page cache where unavailable)")
		costs     = fs.String("costs", "", "cost file with delete/rename costs")
		paper     = fs.Bool("papercosts", false, "use the paper's Section 6 example cost table")
		auto      = fs.Bool("autocosts", false, "derive delete/rename costs from the collection structure")
		n         = fs.Int("n", 10, "number of results (0 = all)")
		strategy  = fs.String("strategy", "auto", "evaluation strategy: auto, direct, schema")
		render    = fs.Bool("render", false, "print the matching subtrees, not only the roots")
		highlight = fs.Bool("highlight", false, "annotate each result with how every query selector matched")
		explain   = fs.Bool("explain", false, "print the best second-level queries instead of results")
		stream    = fs.Bool("stream", false, "print results incrementally as they are found")
		stats     = fs.Bool("stats", false, "with a query: print per-stage execution metrics after the results; without: print collection statistics")
		parallel  = fs.Int("parallel", 0, "shard workers of a corpus-bundle search (0 = GOMAXPROCS, 1 = one shard at a time)")
		timeout   = fs.Duration("timeout", 0, "abort the query after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath != "" && approxql.IsCorpusBundle(*dbPath) {
		return queryCorpus(corpusQueryFlags{
			dbPath:    *dbPath,
			cache:     *cache,
			mmap:      *mmap,
			costs:     *costs,
			paper:     *paper,
			auto:      *auto,
			n:         *n,
			strategy:  *strategy,
			render:    *render,
			highlight: *highlight,
			explain:   *explain,
			stream:    *stream,
			stats:     *stats,
			parallel:  *parallel,
			timeout:   *timeout,
		}, fs.Args(), stdout)
	}
	if *stats && fs.NArg() == 0 {
		db, err := openDatabase(*dbPath, *xml, approxql.NewCostModel(), *cache, *mmap)
		if err != nil {
			return err
		}
		defer db.Close()
		return printStats(stdout, db)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: axql [flags] 'query'")
	}
	query := fs.Arg(0)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fallback := approxql.NewCostModel()
	if *paper {
		fallback = approxql.PaperCostModel()
	}
	model, err := loadCosts(*costs, fallback)
	if err != nil {
		return err
	}

	db, err := openDatabase(*dbPath, *xml, model, *cache, *mmap)
	if err != nil {
		return err
	}
	defer db.Close()
	if *auto {
		if *costs != "" || *paper {
			return fmt.Errorf("-autocosts conflicts with -costs and -papercosts")
		}
		model, err = db.SuggestCostModel(query, approxql.SuggestOptions{})
		if err != nil {
			return err
		}
	}

	opts := []approxql.QueryOption{approxql.WithCostModel(model)}
	switch *strategy {
	case "auto":
	case "direct":
		opts = append(opts, approxql.WithStrategy(approxql.Direct))
	case "schema":
		opts = append(opts, approxql.WithStrategy(approxql.SchemaDriven))
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	var metrics *approxql.QueryMetrics
	if *stats {
		metrics = &approxql.QueryMetrics{}
		opts = append(opts, approxql.WithMetrics(metrics))
	}

	switch {
	case *explain:
		dec, err := db.Plan(query, *n, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", plannerLine(dec, *strategy))
		plans, err := db.ExplainContext(ctx, query, *n, opts...)
		if err != nil {
			return err
		}
		for i, p := range plans {
			fmt.Fprintf(stdout, "%2d. cost %-4d results %-5d %s\n", i+1, p.Cost, p.Results, p.Rendered)
		}
	case *stream:
		i := 0
		err := db.StreamContext(ctx, query, func(r approxql.Result) bool {
			i++
			printResult(stdout, db, i, r, *render)
			return *n <= 0 || i < *n
		}, opts...)
		if err != nil {
			return err
		}
	default:
		results, err := db.SearchContext(ctx, query, *n, opts...)
		if err != nil {
			return err
		}
		for i, r := range results {
			printResult(stdout, db, i+1, r, *render)
			if *highlight {
				if err := printHighlight(stdout, db, query, r, opts); err != nil {
					return err
				}
			}
		}
	}
	if metrics != nil {
		fmt.Fprintf(stdout, "--- execution metrics ---\n%s", metrics.String())
	}
	return nil
}

// corpusQueryFlags carries the axql flag values into the corpus query path.
type corpusQueryFlags struct {
	dbPath    string
	cache     int
	mmap      bool
	costs     string
	paper     bool
	auto      bool
	n         int
	strategy  string
	render    bool
	highlight bool
	explain   bool
	stream    bool
	stats     bool
	parallel  int
	timeout   time.Duration
}

// queryCorpus evaluates one query against a multi-shard corpus bundle. It
// mirrors the database path but prints each hit's document, and rejects the
// flags that only make sense against a single database.
func queryCorpus(f corpusQueryFlags, args []string, stdout io.Writer) error {
	if f.auto {
		return fmt.Errorf("axql: -autocosts is not supported on a corpus bundle")
	}
	if f.highlight {
		return fmt.Errorf("axql: -highlight is not supported on a corpus bundle")
	}

	fallback := approxql.NewCostModel()
	if f.paper {
		fallback = approxql.PaperCostModel()
	}
	model, err := loadCosts(f.costs, fallback)
	if err != nil {
		return err
	}

	c, err := approxql.Open(f.dbPath, &approxql.OpenOptions{Model: model, CacheEntries: f.cache, MMap: f.mmap})
	if err != nil {
		return err
	}
	defer c.Close()

	if f.stats && len(args) == 0 {
		st := c.Stats()
		fmt.Fprintf(stdout, "documents      %d\n", st.Docs)
		fmt.Fprintf(stdout, "shards         %d\n", st.Shards)
		fmt.Fprintf(stdout, "nodes          %d\n", st.Nodes)
		fmt.Fprintf(stdout, "max depth      %d\n", st.MaxDepth)
		return nil
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: axql [flags] 'query'")
	}
	query := args[0]

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}

	opts := []approxql.QueryOption{approxql.WithCostModel(model)}
	switch f.strategy {
	case "auto":
	case "direct":
		opts = append(opts, approxql.WithStrategy(approxql.Direct))
	case "schema":
		opts = append(opts, approxql.WithStrategy(approxql.SchemaDriven))
	default:
		return fmt.Errorf("unknown strategy %q", f.strategy)
	}
	if f.parallel != 0 {
		opts = append(opts, approxql.WithParallelism(f.parallel))
	}
	var metrics *approxql.QueryMetrics
	if f.stats {
		metrics = &approxql.QueryMetrics{}
		opts = append(opts, approxql.WithMetrics(metrics))
	}

	switch {
	case f.explain:
		dec, err := c.Plan(query, f.n, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, plannerLine(dec, f.strategy))
		plans, err := c.ExplainContext(ctx, query, f.n, opts...)
		if err != nil {
			return err
		}
		for i, p := range plans {
			fmt.Fprintf(stdout, "%2d. cost %-4d results %-5d shards %-3d %s\n",
				i+1, p.Cost, p.Results, p.Shards, p.Rendered)
		}
	case f.stream:
		i := 0
		err := c.StreamContext(ctx, query, func(h approxql.Hit) bool {
			i++
			printHit(stdout, c, i, h, f.render)
			return f.n <= 0 || i < f.n
		}, opts...)
		if err != nil {
			return err
		}
	default:
		hits, err := c.SearchContext(ctx, query, f.n, opts...)
		if err != nil {
			return err
		}
		for i, h := range hits {
			printHit(stdout, c, i+1, h, f.render)
		}
	}
	if metrics != nil {
		fmt.Fprintf(stdout, "--- execution metrics ---\n%s", metrics.String())
	}
	return nil
}

// plannerLine renders the -explain header reporting the planner's view of
// the query: the starting strategy, the direct algorithm's price (the
// budget of a schema-driven start), and whether the strategy was
// planner-resolved or forced by -strategy.
func plannerLine(dec approxql.PlanDecision, strategyFlag string) string {
	chosen := dec.Strategy.String()
	planner := "auto"
	if strategyFlag != "auto" {
		chosen = strategyFlag
		planner = "forced"
	}
	return fmt.Sprintf("planner strategy=%s price=%d planner=%s", chosen, dec.Price, planner)
}

// printHit prints one ranked corpus hit, naming the document it came from.
func printHit(w io.Writer, c *approxql.Corpus, rank int, h approxql.Hit, render bool) {
	doc := c.Doc(h.Doc)
	name := doc.Name()
	if name == "" {
		name = fmt.Sprintf("doc %d", h.Doc)
	}
	fmt.Fprintf(w, "%2d. cost %-4d [%s] %s\n", rank, h.Cost, name, doc.Path(h.Root))
	if render {
		for _, line := range strings.Split(strings.TrimRight(doc.RenderNode(h.Root), "\n"), "\n") {
			fmt.Fprintf(w, "      %s\n", line)
		}
	}
}

// printHighlight annotates one result with the fate of every query selector.
func printHighlight(w io.Writer, db *approxql.Database, query string, r approxql.Result, opts []approxql.QueryOption) error {
	steps, _, err := db.MatchDetails(query, r.Root, opts...)
	if err != nil {
		return err
	}
	for _, s := range steps {
		switch s.Action {
		case "matched":
			fmt.Fprintf(w, "      %-8s %s:%s at %s\n", s.Action, s.Kind, s.QueryLabel, db.Path(s.Node))
		case "renamed":
			fmt.Fprintf(w, "      %-8s %s:%s → %s at %s\n", s.Action, s.Kind, s.QueryLabel, s.MatchedLabel, db.Path(s.Node))
		default:
			fmt.Fprintf(w, "      %-8s %s:%s\n", s.Action, s.Kind, s.QueryLabel)
		}
	}
	return nil
}

// printStats reports collection statistics.
func printStats(w io.Writer, db *approxql.Database) error {
	st := db.Stats()
	fmt.Fprintf(w, "nodes          %d\n", st.Nodes)
	fmt.Fprintf(w, "elements       %d\n", st.Elements)
	fmt.Fprintf(w, "words          %d\n", st.Words)
	fmt.Fprintf(w, "documents      %d\n", st.Documents)
	fmt.Fprintf(w, "max depth      %d\n", st.MaxDepth)
	fmt.Fprintf(w, "selectivity    %d\n", st.Selectivity)
	fmt.Fprintf(w, "recursivity    %d\n", st.Recursivity)
	fmt.Fprintf(w, "schema classes %d\n", st.SchemaClasses)
	fmt.Fprintf(w, "largest class  %d\n", st.LargestClass)
	return nil
}

func openDatabase(dbPath, xml string, model *approxql.CostModel, cache int, mmap bool) (*approxql.Database, error) {
	switch {
	case dbPath != "":
		return approxql.OpenDatabaseFileOptions(dbPath, &approxql.OpenOptions{
			Model: model, CacheEntries: cache, MMap: mmap,
		})
	case xml != "":
		b := approxql.NewBuilder(model)
		for _, path := range strings.Split(xml, ",") {
			if err := b.AddXMLFile(strings.TrimSpace(path)); err != nil {
				return nil, err
			}
		}
		return b.Database()
	}
	return nil, fmt.Errorf("one of -db or -xml is required")
}

func printResult(w io.Writer, db *approxql.Database, rank int, r approxql.Result, render bool) {
	fmt.Fprintf(w, "%2d. cost %-4d %s\n", rank, r.Cost, db.Path(r.Root))
	if render {
		for _, line := range strings.Split(strings.TrimRight(db.Render(r.Root), "\n"), "\n") {
			fmt.Fprintf(w, "      %s\n", line)
		}
	}
}
