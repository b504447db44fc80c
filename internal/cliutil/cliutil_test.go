package cliutil

import "testing"

// TestValidateVerifyEvery pins the -verify-every contract: negative
// values are rejected with a clear message (they used to be silently
// absorbed by the "≤ 1 audits every run" fallback), 0/1/N pass.
func TestValidateVerifyEvery(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		wantErr bool
	}{
		{"negative_one", -1, true},
		{"very_negative", -1 << 30, true},
		{"zero_means_every_run", 0, false},
		{"one_means_every_run", 1, false},
		{"sampling", 16, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateVerifyEvery(tc.n)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ValidateVerifyEvery(%d) = %v, wantErr=%v", tc.n, err, tc.wantErr)
			}
		})
	}
}

func TestValidateNonNegative(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		wantErr bool
	}{
		{"negative", -1, true},
		{"zero_default", 0, false},
		{"positive", 7, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateNonNegative("-workers", tc.n)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ValidateNonNegative(%d) = %v, wantErr=%v", tc.n, err, tc.wantErr)
			}
		})
	}
}

func TestValidateAnglesets(t *testing.T) {
	for _, n := range []int{1, 2, 8, 100} {
		if err := ValidateAnglesets(n); err != nil {
			t.Errorf("n=%d: unexpected error %v", n, err)
		}
	}
	for _, n := range []int{0, -1, -8} {
		if err := ValidateAnglesets(n); err == nil {
			t.Errorf("n=%d: expected error", n)
		}
	}
}

func TestParseSpeeds(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    []int32
		wantErr bool
	}{
		{"empty_is_uniform", "", nil, false},
		{"single", "4", []int32{4}, false},
		{"pattern", "1,2,4", []int32{1, 2, 4}, false},
		{"spaces", " 1 , 2 ", []int32{1, 2}, false},
		{"zero", "1,0", nil, true},
		{"negative", "-2", nil, true},
		{"not_a_number", "1,fast", nil, true},
		{"trailing_comma", "1,2,", nil, true},
		{"overflow", "4294967296", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSpeeds(tc.spec)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ParseSpeeds(%q) = %v, %v, wantErr=%v", tc.spec, got, err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ParseSpeeds(%q) = %v, want %v", tc.spec, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ParseSpeeds(%q) = %v, want %v", tc.spec, got, tc.want)
				}
			}
		})
	}
}
