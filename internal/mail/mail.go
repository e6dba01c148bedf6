// Package mail implements the paper's second evaluation application: "an
// interactive mail system where messages are implemented by agents".
//
// A message is a TacL agent that carries its own headers and body in its
// briefcase, jumps to the recipient's site, deposits itself in the
// recipient's mailbox (a site-local file cabinet folder), and — because a
// message is an agent, not inert data — optionally travels back to the
// sender's site to deposit a delivery receipt. Mailboxes are served by a
// mailbox agent; user programs read mail by meeting it.
package mail

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// ErrMalformed reports a mailbox entry that does not decode as a message.
// Deposits are validated on the way in, so hitting it from List or Fetch
// means the cabinet folder was mutated outside the mail protocol.
var ErrMalformed = errors.New("mail: malformed message")

// AgMailbox is the mailbox agent registered at every mail site.
const AgMailbox = "mailbox"

// Mailbox briefcase protocol folders.
const (
	OpFolder      = "OP"      // deposit | list | fetch | delete | receipt
	UserFolder    = "USER"    // mailbox owner
	MsgFolder     = "MSG"     // encoded message (deposit) or fetched copy
	IndexFolder   = "INDEX"   // message index for fetch/delete
	HeadersFolder = "HEADERS" // list results
)

// Message is one piece of agent mail.
type Message struct {
	From    string // user@site
	To      string // user@site
	Subject string
	Body    string
}

// Encode renders the message as a single folder element. The body may
// contain any characters; it is stored after headers as the tail.
func (m Message) Encode() string {
	return strings.Join([]string{m.From, m.To, m.Subject, m.Body}, "\x1f")
}

// ParseMessage decodes an encoded message; failures wrap ErrMalformed.
func ParseMessage(s string) (Message, error) {
	parts := strings.SplitN(s, "\x1f", 4)
	if len(parts) != 4 {
		return Message{}, fmt.Errorf("%w: %q", ErrMalformed, s)
	}
	return Message{From: parts[0], To: parts[1], Subject: parts[2], Body: parts[3]}, nil
}

// Address splits "user@site".
func Address(addr string) (user string, site vnet.SiteID, err error) {
	u, s, ok := strings.Cut(addr, "@")
	if !ok || u == "" || s == "" {
		return "", "", fmt.Errorf("mail: bad address %q", addr)
	}
	return u, vnet.SiteID(s), nil
}

func mboxFolder(user string) string    { return "MBOX:" + user }
func receiptFolder(user string) string { return "RECEIPTS:" + user }

// InstallMailbox registers the mailbox agent at a site.
func InstallMailbox(site *core.Site) {
	site.Register(AgMailbox, core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		op, err := bc.GetString(OpFolder)
		if err != nil {
			return fmt.Errorf("mailbox: missing OP: %w", err)
		}
		user, err := bc.GetString(UserFolder)
		if err != nil {
			return fmt.Errorf("mailbox: missing USER: %w", err)
		}
		cab := mc.Site.Cabinet()
		switch op {
		case "deposit":
			raw, err := bc.GetString(MsgFolder)
			if err != nil {
				return fmt.Errorf("mailbox: missing MSG: %w", err)
			}
			if _, err := ParseMessage(raw); err != nil {
				return err
			}
			cab.AppendString(mboxFolder(user), raw)
			// A deposit is a wakeup: any agent parked watching this mailbox
			// folder gets its task enqueued — no goroutine polls a mailbox.
			mc.Site.Wake(mboxFolder(user))
			return nil
		case "receipt":
			raw, err := bc.GetString(MsgFolder)
			if err != nil {
				return fmt.Errorf("mailbox: missing MSG: %w", err)
			}
			cab.AppendString(receiptFolder(user), raw)
			mc.Site.Wake(receiptFolder(user))
			return nil
		case "list":
			// Headers travel as raw encoded messages; the client side
			// (List) parses them into typed Messages. Older "i: from:
			// subject" strings were unparseable the moment a caller wanted
			// the subject back.
			headers := folder.New()
			for _, raw := range cab.Snapshot(mboxFolder(user)).Strings() {
				headers.PushString(raw)
			}
			bc.Put(HeadersFolder, headers)
			return nil
		case "fetch":
			idx, err := mboxIndex(bc)
			if err != nil {
				return err
			}
			msgs := cab.Snapshot(mboxFolder(user))
			raw, err := msgs.StringAt(idx)
			if err != nil {
				return fmt.Errorf("mailbox: no message %d for %s: %w", idx, user, err)
			}
			bc.PutString(MsgFolder, raw)
			return nil
		case "delete":
			idx, err := mboxIndex(bc)
			if err != nil {
				return err
			}
			// In place under the cabinet's shard lock: a snapshot/remove/put
			// sequence here would silently drop any message deposited between
			// the snapshot and the put.
			if err := cab.RemoveAt(mboxFolder(user), idx); err != nil {
				return fmt.Errorf("mailbox: no message %d for %s: %w", idx, user, err)
			}
			return nil
		default:
			return fmt.Errorf("mailbox: unknown op %q", op)
		}
	}))
}

func mboxIndex(bc *folder.Briefcase) (int, error) {
	s, err := bc.GetString(IndexFolder)
	if err != nil {
		return 0, fmt.Errorf("mailbox: missing INDEX: %w", err)
	}
	idx, err := strconv.Atoi(s)
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("mailbox: bad INDEX %q", s)
	}
	return idx, nil
}

// messageScript is the mail agent: jump to the recipient's site, deposit
// the carried message, then (if a receipt was requested) travel on to the
// sender's site and deposit a receipt. The message is code + data moving
// itself — not a payload pushed by infrastructure.
const messageScript = `
	if {[bc_get PHASE 0] eq "outbound"} {
		bc_set PHASE 0 deliver
		jump [bc_get DEST 0]
	}
	if {[bc_get PHASE 0] eq "deliver"} {
		bc_push OP deposit
		meet mailbox
		bc_del OP
		if {[bc_get WANTRECEIPT 0] eq "1"} {
			bc_set PHASE 0 receipt
			jump [bc_get HOME 0]
		}
	}
	if {[bc_get PHASE 0] eq "receipt"} {
		bc_push OP receipt
		bc_set USER 0 [bc_get SENDER 0]
		meet mailbox
		bc_del OP
	}
`

// Send mails a message: it builds the message agent and injects it at the
// sender's site, from which it migrates itself. Send is synchronous: it
// returns once the message agent has finished its journey (including the
// receipt leg when requested).
func Send(ctx context.Context, from *core.Site, msg Message, wantReceipt bool) error {
	fromUser, fromSite, err := Address(msg.From)
	if err != nil {
		return err
	}
	if fromSite != from.ID() {
		return fmt.Errorf("mail: sender %s is not at site %s", msg.From, from.ID())
	}
	toUser, toSite, err := Address(msg.To)
	if err != nil {
		return err
	}
	bc := folder.NewBriefcase()
	bc.PutString("PHASE", "outbound")
	bc.PutString("DEST", string(toSite))
	bc.PutString("HOME", string(fromSite))
	bc.PutString(UserFolder, toUser)
	bc.PutString("SENDER", fromUser)
	bc.PutString(MsgFolder, msg.Encode())
	receipt := "0"
	if wantReceipt {
		receipt = "1"
	}
	bc.PutString("WANTRECEIPT", receipt)
	_, err = core.RunScript(ctx, from, messageScript, bc)
	return err
}

// List returns the messages in a user's mailbox at a site, in mailbox
// order (the order Fetch and Delete index by, as of the snapshot the
// mailbox agent took). A mailbox entry that does not decode fails the
// whole listing with an error wrapping ErrMalformed — deposits are
// validated, so a corrupt entry means out-of-band cabinet tampering, and
// silently skipping it would shift every later index.
func List(ctx context.Context, client *core.Site, user string, at vnet.SiteID) ([]Message, error) {
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "list")
	bc.PutString(UserFolder, user)
	if err := client.Meet(ctx, AgMailbox, bc, core.At(at)); err != nil {
		return nil, err
	}
	h, err := bc.Folder(HeadersFolder)
	if err != nil {
		return nil, err
	}
	raws := h.Strings()
	msgs := make([]Message, 0, len(raws))
	for i, raw := range raws {
		m, err := ParseMessage(raw)
		if err != nil {
			return nil, fmt.Errorf("mail: mailbox %s at %s, entry %d: %w", user, at, i, err)
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// Fetch retrieves message idx from a user's mailbox.
//
// Index contract: idx is a position in the mailbox folder at the moment
// the mailbox agent serves the meet, i.e. the order List returned. Indexes
// are not stable handles — a concurrent Delete (cabinet RemoveAt) shifts
// every later message down by one, and a concurrent deposit appends. A
// reader racing writers must be prepared for ErrMalformed-free misses
// ("no message idx") or fetching a neighbor of the message it listed;
// read-modify-delete sequences should be serialized per mailbox by the
// application.
func Fetch(ctx context.Context, client *core.Site, user string, at vnet.SiteID, idx int) (Message, error) {
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "fetch")
	bc.PutString(UserFolder, user)
	bc.PutString(IndexFolder, strconv.Itoa(idx))
	if err := client.Meet(ctx, AgMailbox, bc, core.At(at)); err != nil {
		return Message{}, err
	}
	raw, err := bc.GetString(MsgFolder)
	if err != nil {
		return Message{}, err
	}
	return ParseMessage(raw)
}

// Delete removes message idx from a user's mailbox.
func Delete(ctx context.Context, client *core.Site, user string, at vnet.SiteID, idx int) error {
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, "delete")
	bc.PutString(UserFolder, user)
	bc.PutString(IndexFolder, strconv.Itoa(idx))
	return client.Meet(ctx, AgMailbox, bc, core.At(at))
}

// Receipts returns the delivery receipts deposited for a sender at a site.
func Receipts(site *core.Site, user string) []string {
	return site.Cabinet().Snapshot(receiptFolder(user)).Strings()
}
