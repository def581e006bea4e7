package service

import (
	"testing"
)

// benchRequests is a mixed submission stream: proved, refuted and
// baseline registry policies plus a DSL-source submission that shares
// cache entries with a registered spec.
func benchRequests() []Request {
	return []Request{
		{Policy: "delta2"},
		{Policy: "greedy-buggy"},
		{Policy: "weighted"},
		{Policy: "null"},
		{Policy: "delta2-gen"},
		{Source: delta2Source}, // pure cache traffic after the delta2 entry exists
	}
}

func runAll(b *testing.B, s *Service, reqs []Request) {
	b.Helper()
	for _, req := range reqs {
		rep, job, err := s.Submit(req)
		if err != nil {
			b.Fatalf("Submit: %v", err)
		}
		if rep != nil {
			continue
		}
		<-job.done
		if _, rep, errMsg := job.Snapshot(); rep == nil {
			b.Fatalf("job %s cancelled: %s", job.ID(), errMsg)
		}
	}
}

// BenchmarkVerifydColdMixed measures the mixed stream against an empty
// cache: every obligation of every policy runs on the sharded driver.
func BenchmarkVerifydColdMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := MustNew(Config{})
		b.StartTimer()
		runAll(b, s, benchRequests())
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkVerifydWarmMixed measures the same stream against a warmed
// cache: every submission is answered from the memo on the Submit call.
// The cold/warm ratio is the service's headline speedup; the acceptance
// bar is warm < 1% of cold.
func BenchmarkVerifydWarmMixed(b *testing.B) {
	s := MustNew(Config{})
	defer s.Close()
	runAll(b, s, benchRequests())
	start := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(b, s, benchRequests())
	}
	b.StopTimer()
	if misses := s.Stats().CacheMisses - start.CacheMisses; misses != 0 {
		b.Fatalf("warm stream missed the cache %d times", misses)
	}
}
