package lru

import "testing"

func TestPutEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	if _, ev := c.Put("a", 1); ev {
		t.Fatal("unexpected eviction on first insert")
	}
	if _, ev := c.Put("b", 2); ev {
		t.Fatal("unexpected eviction under capacity")
	}
	key, ev := c.Put("c", 3)
	if !ev || key != "a" {
		t.Fatalf("Put(c) evicted (%q, %v), want (a, true)", key, ev)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted key still present")
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) = (%d, %v), want (3, true)", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestGetPromotes(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missed")
	}
	// "b" is now least recent and must be the one to go.
	if key, ev := c.Put("c", 3); !ev || key != "b" {
		t.Fatalf("Put(c) evicted (%q, %v), want (b, true)", key, ev)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted key was evicted")
	}
}

func TestPutUpdatesWithoutEviction(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ev := c.Put("a", 10); ev {
		t.Fatal("update of existing key must not evict")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) = %d after update, want 10", v)
	}
	// The update also promoted "a": inserting now evicts "b".
	if key, ev := c.Put("c", 3); !ev || key != "b" {
		t.Fatalf("Put(c) evicted (%q, %v), want (b, true)", key, ev)
	}
}

func TestNonPositiveCapacity(t *testing.T) {
	c := New[int, int](0)
	if _, ev := c.Put(1, 1); ev {
		t.Fatal("Put(1) into an empty cache evicted")
	}
	if key, ev := c.Put(2, 2); !ev || key != 1 {
		t.Fatalf("Put(2) evicted (%d, %v), want (1, true)", key, ev)
	}
	if v, ok := c.Get(2); !ok || v != 2 {
		t.Fatalf("Get(2) = (%d, %v), want (2, true)", v, ok)
	}
}

func TestSingleEntryChurn(t *testing.T) {
	c := New[int, string](1)
	for i := 0; i < 10; i++ {
		c.Put(i, "v")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get(9); !ok {
		t.Fatal("most recent entry missing")
	}
}
