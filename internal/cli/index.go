package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"approxql"
)

// Index is the axqlindex entry point: it builds a collection file from XML
// documents and optionally persists the postings and the secondary index
// into B+tree stores. When both stores are written it also writes a bundle
// manifest (default <out>.bundle) so `axql -db <bundle>` queries the
// persisted indexes directly, without re-ingesting the XML.
//
// With -shard-docs N the inputs are indexed as a sharded corpus instead:
// each shard holds up to N documents with its own collection and index
// files, and -out names the corpus bundle manifest tying them together.
// Query it with `axql -db <bundle>` or serve it with `axqlserve -db <bundle>`.
func Index(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("axqlindex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "output collection file (required); with -shard-docs, the corpus bundle manifest")
		postings  = fs.String("postings", "", "optional: also persist postings into this B+tree file")
		secIdx    = fs.String("secondary", "", "optional: also persist the path-dependent secondary index into this B+tree file")
		bundle    = fs.String("bundle", "", "bundle manifest path (default <out>.bundle when -postings and -secondary are both set)")
		costs     = fs.String("costs", "", "optional: cost file fixing node-insertion costs")
		shardDocs = fs.Int("shard-docs", 0, "index as a sharded corpus with up to this many documents per shard")
		mmap      = fs.Bool("mmap", false, "after writing a bundle, reopen it with memory-mapped stored indexes to verify it serves (requires -postings and -secondary)")
		quiet     = fs.Bool("q", false, "suppress the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("usage: axqlindex -out FILE [-postings FILE] [-secondary FILE] [-bundle FILE] [-costs FILE] [-shard-docs N] input.xml...")
	}
	if *bundle != "" && (*postings == "" || *secIdx == "") {
		return fmt.Errorf("axqlindex: -bundle requires both -postings and -secondary")
	}

	model, err := loadCosts(*costs, nil)
	if err != nil {
		return err
	}

	if *shardDocs > 0 {
		if *postings != "" || *secIdx != "" || *bundle != "" {
			return fmt.Errorf("axqlindex: -shard-docs derives all shard file names from -out; drop -postings/-secondary/-bundle")
		}
		return indexCorpus(fs.Args(), *out, *shardDocs, model, stderr, *quiet)
	}

	b := approxql.NewBuilder(model)
	for _, path := range fs.Args() {
		if err := b.AddXMLFile(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	db, err := b.Database()
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	n, err := db.WriteTo(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if err := db.PersistIndexes(*postings, *secIdx); err != nil {
		return err
	}
	if *postings != "" && *secIdx != "" {
		if *bundle == "" {
			*bundle = *out + ".bundle"
		}
		if err := approxql.WriteBundle(*bundle, *out, *postings, *secIdx); err != nil {
			return err
		}
	}
	if *mmap {
		if *bundle == "" {
			return fmt.Errorf("axqlindex: -mmap verification requires -postings and -secondary (a bundle to reopen)")
		}
		check, err := approxql.OpenDatabaseFileOptions(*bundle, &approxql.OpenOptions{Model: model, MMap: true})
		if err != nil {
			return fmt.Errorf("axqlindex: reopening %s: %w", *bundle, err)
		}
		mapped := check.MMapped()
		got := check.Len()
		if cerr := check.Close(); cerr != nil {
			return cerr
		}
		if got != db.Len() {
			return fmt.Errorf("axqlindex: bundle %s reopened with %d nodes, indexed %d", *bundle, got, db.Len())
		}
		if !*quiet {
			fmt.Fprintf(stderr, "verified: bundle reopens with %d nodes (mmap=%v)\n", got, mapped)
		}
	}

	if !*quiet {
		st := db.Tree().ComputeStats()
		fmt.Fprintf(stderr,
			"indexed %d documents: %d elements, %d words, %d bytes written to %s\n",
			st.Documents, st.StructNodes, st.TextNodes, n, *out)
		sch := db.Schema().ComputeStats()
		fmt.Fprintf(stderr, "schema: %d classes (largest class: %d instances)\n",
			sch.Classes, sch.MaxInstances)
		if *postings != "" && *secIdx != "" {
			fmt.Fprintf(stderr, "bundle: %s (query it with: axql -db %s)\n", *bundle, *bundle)
		}
	}
	return nil
}

// indexCorpus builds a sharded corpus from the input files and persists it
// as a corpus bundle at out: per-shard collection/postings/secondary files
// named after the manifest plus the manifest itself.
func indexCorpus(inputs []string, out string, shardDocs int, model *approxql.CostModel, stderr io.Writer, quiet bool) error {
	cb := approxql.NewCorpusBuilder(model)
	cb.SetShardSize(shardDocs)
	for _, path := range inputs {
		if _, err := cb.AddDocumentFile(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	c, err := cb.Corpus()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SaveBundle(out); err != nil {
		return err
	}
	if !quiet {
		st := c.Stats()
		fmt.Fprintf(stderr,
			"indexed %d documents into %d shards (%d nodes): corpus bundle %s\n",
			st.Docs, st.Shards, st.Nodes, out)
		fmt.Fprintf(stderr, "query it with: axql -db %s\n", out)
	}
	return nil
}

// loadCosts reads a cost file, returning fallback when path is empty.
func loadCosts(path string, fallback *approxql.CostModel) (*approxql.CostModel, error) {
	if path == "" {
		return fallback, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := approxql.ParseCostModel(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
