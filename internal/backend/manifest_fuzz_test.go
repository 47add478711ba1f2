package backend

import (
	"strings"
	"testing"
)

// FuzzManifest hammers the manifest parser with malformed input: whatever it
// accepts must carry the current magic line and be a structurally sound
// manifest (non-empty shard table, complete file triples, in-range doc shard
// indices, non-negative summary counters), and it must never panic. The
// seeds include every retired manifest version in both its shapes.
func FuzzManifest(f *testing.F) {
	const (
		single = `{"shards":[{"collection":"c.axql","postings":"c.post","secondary":"c.sec"}]}`
		corpus = `{"shards":[{"collection":"a","postings":"b","secondary":"c",` +
			`"summary":{"docs":1,"nodes":4,"max_depth":2,"struct":{"x":2},"text":{"t":1}}}],` +
			`"docs":[{"shard":0,"name":"a.xml"}]}`
		textBody = "collection c.axql\npostings c.post\nsecondary c.sec\n"
	)
	f.Add([]byte(manifestMagic + "\n" + single))
	f.Add([]byte(manifestMagic + "\n" + corpus))
	for _, v := range []string{"1", "2", "3", "4", "5"} {
		f.Add([]byte(manifestMagicPrefix + v + "\n" + textBody))
		f.Add([]byte(manifestMagicPrefix + v + "\n" + corpus))
	}
	f.Add([]byte(manifestMagic + "\n" + textBody))
	f.Add([]byte(manifestMagic + "\n{}"))
	f.Add([]byte(manifestMagic + "\n{\"shards\":[]}"))
	f.Add([]byte(manifestMagic + "\n{\"shards\":[{\"collection\":\"c\"}]}"))
	f.Add([]byte(manifestMagic + "\n{\"shards\":[{\"collection\":\"a\",\"postings\":\"b\",\"secondary\":\"c\"}],\"docs\":[{\"shard\":7}]}"))
	f.Add([]byte(manifestMagic + "\n{\"shards\":[{\"collection\":\"a\",\"postings\":\"b\",\"secondary\":\"c\",\"summary\":{\"docs\":-1}}]}"))
	f.Add([]byte(manifestMagic))
	f.Add([]byte(""))
	f.Add([]byte(manifestMagic + "\n" + single + "{}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data, "/bundles/c.bundle")
		if err != nil {
			return
		}
		if len(m.Shards) == 0 {
			t.Fatal("accepted manifest with no shards")
		}
		for i, s := range m.Shards {
			if s.Collection == "" || s.Postings == "" || s.Secondary == "" {
				t.Fatalf("accepted shard %d with missing files: %+v", i, s)
			}
			if sum := s.Summary; sum != nil {
				if sum.Docs < 0 || sum.Nodes < 0 || sum.MaxDepth < 0 {
					t.Fatalf("accepted shard %d with negative summary counter: %+v", i, *sum)
				}
				for label, n := range sum.Struct {
					if n < 0 {
						t.Fatalf("accepted negative struct count %d for %q", n, label)
					}
				}
				for term, n := range sum.Text {
					if n < 0 {
						t.Fatalf("accepted negative text count %d for %q", n, term)
					}
				}
			}
		}
		if len(m.Docs) == 0 && len(m.Shards) != 1 {
			t.Fatalf("accepted %d shards without a document table", len(m.Shards))
		}
		for id, d := range m.Docs {
			if d.Shard < 0 || d.Shard >= len(m.Shards) {
				t.Fatalf("accepted doc %d pointing at shard %d of %d", id, d.Shard, len(m.Shards))
			}
		}
		if !strings.HasPrefix(string(data), manifestMagic+"\n") {
			t.Fatalf("accepted manifest without the current magic line: %q", truncate(string(data), 64))
		}
	})
}
