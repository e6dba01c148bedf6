package main

import "testing"

func TestPeerListSet(t *testing.T) {
	var p peerList
	if err := p.Set("site-1=127.0.0.1:7101"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("site-2=10.0.0.2:7102"); err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("peers = %v", p)
	}
	if p.String() != "site-1=127.0.0.1:7101,site-2=10.0.0.2:7102" {
		t.Fatalf("String = %q", p.String())
	}
	if err := p.Set("missing-equals"); err == nil {
		t.Fatal("malformed peer accepted")
	}
}
