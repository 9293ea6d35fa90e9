package resultcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	t.Parallel()
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded, want error")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	k := Key{Cell: "app=montage|storage=s3fs|workers=8", Seed: 0x5EED}
	row := []byte(`{"makespan_s":123.5}`)
	if err := s.Put(k, row); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(row) {
		t.Errorf("Get = %s, want %s", got, row)
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 0 {
		t.Errorf("stats = %d/%d, want 1 hit, 0 misses", hits, misses)
	}
}

func TestGetMiss(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	if _, err := s.Get(Key{Cell: "nope", Seed: 1}); !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v, want ErrMiss", err)
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d, want 0 hits, 1 miss", hits, misses)
	}
}

func TestDistinctKeysDistinctEntries(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	base := Key{Cell: "cell", Seed: 7}
	variants := []Key{
		base,
		{Cell: "cell2", Seed: 7},
		{Cell: "cell", Seed: 8},
	}
	for i, k := range variants {
		if err := s.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range variants {
		got, err := s.Get(k)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(got) != want {
			t.Errorf("variant %d: got %s, want %s", i, got, want)
		}
	}
	if n, err := s.Len(); err != nil || n != len(variants) {
		t.Errorf("Len = %d, %v; want %d entries", n, err, len(variants))
	}
}

func TestPutOverwrites(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	k := Key{Cell: "c", Seed: 1}
	for _, row := range []string{`{"v":1}`, `{"v":2}`} {
		if err := s.Put(k, []byte(row)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"v":2}` {
		t.Errorf("got %s, want the overwritten row", got)
	}
	if n, _ := s.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (overwrite, not accumulate)", n)
	}
}

// entryPath finds the single entry file for a key's id.
func entryPath(t *testing.T, s *Store, k Key) string {
	t.Helper()
	path := filepath.Join(s.Dir(), k.id()+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBitFlipIsCorruptError(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	k := Key{Cell: "c", Seed: 1}
	if err := s.Put(k, []byte(`{"makespan_s":123.5}`)); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s, k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the payload digits: the JSON still parses, so
	// only the checksum can catch it.
	i := strings.Index(string(data), "123.5")
	if i < 0 {
		t.Fatal("payload not found in entry")
	}
	data[i+1] ^= 0x01 // '2' -> '3': still a digit, still valid JSON
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(k)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CorruptError", err, err)
	}
	if !strings.Contains(ce.Reason, "checksum") {
		t.Errorf("reason %q, want a checksum mismatch", ce.Reason)
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d: a corrupt entry must count as a miss", hits, misses)
	}
}

func TestTruncatedEntryIsCorruptError(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	k := Key{Cell: "c", Seed: 1}
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s, k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := s.Get(k); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError for a torn entry", err)
	}
}

func TestSchemaMismatchIsSchemaError(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	k := Key{Cell: "c", Seed: 1}
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s, k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry under a future schema version, simulating a file
	// planted (or renamed) from a newer store.
	var e map[string]any
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e["schema"] = SchemaVersion + 1
	data, err = json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var se *SchemaError
	if _, err := s.Get(k); !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SchemaError", err)
	}
	if se.Got != SchemaVersion+1 || se.Want != SchemaVersion {
		t.Errorf("SchemaError got=%d want=%d", se.Got, se.Want)
	}
}

func TestKeyFieldMismatchIsCorruptError(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	a := Key{Cell: "a", Seed: 1}
	b := Key{Cell: "b", Seed: 1}
	if err := s.Put(a, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Plant a's entry under b's address: the embedded key fields disagree
	// with the requested key, so the read must refuse.
	data, err := os.ReadFile(entryPath(t, s, a))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), b.id()+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := s.Get(b); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError for planted entry", err)
	}
}

func TestKeysSortedAndStable(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	var want []Key
	for i := 0; i < 8; i++ {
		k := Key{Cell: fmt.Sprintf("cell-%d", i), Seed: uint64(i)}
		if err := s.Put(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	first, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two Keys calls over an unchanged store disagree")
	}
	// Same key set, and in the file-name order the store promises.
	byMaterial := func(ks []Key) []string {
		ms := make([]string, len(ks))
		for i, k := range ks {
			ms[i] = k.material()
		}
		sort.Strings(ms)
		return ms
	}
	if !reflect.DeepEqual(byMaterial(first), byMaterial(want)) {
		t.Errorf("Keys returned %v, want the 8 stored keys", first)
	}
	ids := make([]string, len(first))
	for i, k := range first {
		ids[i] = k.id()
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("Keys not in sorted file-name order: %v", ids)
	}
}

func TestKeysReportsCorruptEntriesButReturnsRemainder(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	good := Key{Cell: "good", Seed: 1}
	bad := Key{Cell: "bad", Seed: 2}
	for _, k := range []Key{good, bad} {
		if err := s.Put(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(entryPath(t, s, bad), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError reporting the damaged entry", err)
	}
	if len(keys) != 1 || keys[0] != good {
		t.Errorf("keys = %v, want just the readable entry", keys)
	}
}

func TestPruneRemovesDamagedEntriesOnly(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	good := Key{Cell: "good", Seed: 1}
	bad := Key{Cell: "bad", Seed: 2}
	for _, k := range []Key{good, bad} {
		if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(entryPath(t, s, bad), []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Prune()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("Prune removed %d, want 1", removed)
	}
	if _, err := s.Get(good); err != nil {
		t.Errorf("good entry gone after Prune: %v", err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Errorf("Len = %d after Prune, want 1", n)
	}
}

func TestTempFilesInvisible(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	if err := s.Put(Key{Cell: "c", Seed: 1}, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	// A stranded temp file (a crashed writer) must not show up as an
	// entry anywhere.
	if err := os.WriteFile(filepath.Join(s.Dir(), "put-123.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1 (temp files excluded)", n, err)
	}
	if keys, err := s.Keys(); err != nil || len(keys) != 1 {
		t.Errorf("Keys = %v, %v; want the single real entry", keys, err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	t.Parallel()
	s := testStore(t)
	k := Key{Cell: "c", Seed: 1}
	row := []byte(`{"v":42}`)
	done := make(chan error, 16)
	for i := 0; i < 8; i++ {
		go func() { done <- s.Put(k, row) }()
		go func() {
			_, err := s.Get(k)
			if errors.Is(err, ErrMiss) {
				err = nil // racing ahead of the first Put is fine
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(row) {
		t.Errorf("after concurrent writes: got %s, want %s", got, row)
	}
}
