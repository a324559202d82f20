package trace

import "testing"

func TestValidateStoreJSONRejectsGarbage(t *testing.T) {
	if err := ValidateStoreJSON([]byte("not json")); err == nil {
		t.Error("garbage validated")
	}
	if err := ValidateStoreJSON([]byte(`{"schema":"wrong"}`)); err == nil {
		t.Error("wrong schema validated")
	}
}
