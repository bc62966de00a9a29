package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// FuzzDecodeTrace feeds arbitrary bytes to the JSON trace decoder. The
// property: a trace that decodes and passes Validate replays to
// completion without panic under FIFO and MinEDF, and the indexed path
// gives the same Result as the reference scan. Seeds cover a generated
// trace and hand-written edge cases: sparse and negative IDs, a
// deadline equal to its arrival, zero durations, shared arrival
// instants, a map-only job and unsorted arrivals.
func FuzzDecodeTrace(f *testing.F) {
	tr, err := synth.MultiTenantTrace(8, rand.New(rand.NewSource(5)))
	if err != nil {
		f.Fatal(err)
	}
	data, err := trace.Encode(tr)
	if err != nil {
		f.Fatal(err)
	}
	valid := [][]byte{data, []byte(`{"name":"edge","jobs":[
		{"id":-4,"arrival":3,"deadline":3,"template":{"app":"a","num_maps":2,"num_reduces":1,
			"map_durations":[0,2],"first_shuffle":[0],"typical_shuffle":[1],"reduce_durations":[0]}},
		{"id":900,"arrival":0,"template":{"app":"m","num_maps":3,"num_reduces":0,
			"map_durations":[1,1,1],"first_shuffle":null,"typical_shuffle":null,"reduce_durations":null}},
		{"id":7,"arrival":3,"deadline":40,"template":{"app":"b","num_maps":1,"num_reduces":3,
			"map_durations":[5],"first_shuffle":[2],"typical_shuffle":[1,4],"reduce_durations":[1,2,3]}}]}`),
		[]byte(`{"jobs":[{"id":0,"arrival":1e300,"template":{"app":"x","num_maps":1,"num_reduces":0,"map_durations":[1e300]}}]}`),
	}
	for _, v := range valid {
		if _, err := trace.Decode(v); err != nil {
			f.Fatalf("seed does not validate: %v", err)
		}
		f.Add(v)
	}
	f.Add([]byte(`{"jobs":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(data)
		if err != nil {
			return
		}
		cfg := Config{MapSlots: 3, ReduceSlots: 2, MinMapPercentCompleted: 0.5}
		for _, p := range []sched.Policy{sched.FIFO{}, sched.MinEDF{}} {
			want, err := Run(cfg, tr, p)
			if err != nil {
				t.Fatalf("%s: a validated trace failed to replay: %v", p.Name(), err)
			}
			got, err := Run(cfg, tr, sched.Indexed(p))
			if err != nil {
				t.Fatalf("indexed %s: a validated trace failed to replay: %v", p.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: indexed replay diverged from the scan", p.Name())
			}
		}
	})
}
