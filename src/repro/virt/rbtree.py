"""A real red–black tree with work accounting.

Palacios keeps the guest memory map as an RB tree of physically contiguous
regions (paper §4.4). The cost the paper measures — "as the tree continues
to grow, the cost for insertions and re-balancing operations increases" —
is reproduced here by counting *node visits*: every node touched during
descent, rotation, or fixup increments :attr:`RedBlackTree.visits`. The
memory map converts visits to nanoseconds via
:attr:`~repro.hw.costs.CostModel.rb_node_visit_ns`.

The implementation is a textbook CLRS red–black tree with parent pointers
and a nil sentinel; :meth:`validate` checks all five invariants and is
exercised by property-based tests.

Appends — keys above the current maximum, which is every guest attach,
because the VMM hands out guest-physical space from a monotone cursor —
skip the descent loop on the host but not in the accounting. Such a
descent turns right at every node of the right spine, so it touches
exactly the spine's nodes: the tree keeps the rightmost node and the
spine's length, charges ``spine + 1`` visits as the loop would, and links
the node under the rightmost one. An append's fixup only ever rotates at
the spine, each rotation moving one spine node off it. Any other insert
or delete may reshape the spine, so it drops the cache; the next append
then takes the ordinary descent, which refreshes it.

The tree stays the plain reference: every operation does its real work.
The memory map's RB backend (:class:`repro.virt.memmap._RbBackend`)
replays whole recurring batches from counts this tree produced, using
the visit-free host-side checks :meth:`shape` and :meth:`peek_max_key`.
Deleting a replayed batch may leave the base in another shape than it
started in; :meth:`reshape` relinks the base's own nodes into the shape
the real delete left, recorded as a :meth:`shape` fingerprint, without
counting visits. Whenever a replay cannot stand in for the tree the
backend builds the tree here.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "color")

    def __init__(self, key, value, nil):
        self.key = key
        self.value = value
        self.left = nil
        self.right = nil
        self.parent = nil
        self.color = RED


class RedBlackTree:
    """Ordered map keyed by integers, with floor search and visit counting."""

    def __init__(self) -> None:
        self.nil = _Node(None, None, None)
        self.nil.color = BLACK
        self.nil.left = self.nil.right = self.nil.parent = self.nil
        self.root = self.nil
        self.size = 0
        #: Total nodes touched across all operations (cost accounting).
        self.visits = 0
        #: Rightmost node and the node count of the root's right spine;
        #: ``_last`` is None while unknown (see the module docstring).
        self._last: Optional[_Node] = None
        self._spine = 0

    # -- rotations -------------------------------------------------------------

    def _rotate_left(self, x: _Node) -> None:
        self.visits += 2
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        self.visits += 2
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # -- insert ----------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert a new key. Raises on duplicates (regions never alias)."""
        last = self._last
        if last is not None and key > last.key:
            parent = last
            spine = self._spine
            self.visits += spine
        else:
            parent = self.nil
            cur = self.root
            depth = 0
            turned_left = False
            while cur is not self.nil:
                self.visits += 1
                depth += 1
                parent = cur
                if key < cur.key:
                    cur = cur.left
                    turned_left = True
                elif key > cur.key:
                    cur = cur.right
                else:
                    raise KeyError(f"duplicate key {key}")
            # a descent that only turned right walked the whole spine
            spine = -1 if turned_left else depth
        self.visits += 1  # the write of the new node itself
        node = _Node(key, value, self.nil)
        node.parent = parent
        if parent is self.nil:
            self.root = node
        elif key < parent.key:
            parent.left = node
        else:
            parent.right = node
        self.size += 1
        rotations = self._insert_fixup(node)
        if spine >= 0:
            self._last = node
            self._spine = spine + 1 - rotations
        else:
            self._last = None

    def _insert_fixup(self, z: _Node) -> int:
        """CLRS insert fixup; returns the number of rotations made."""
        rotations = 0
        while z.parent.color is RED:
            self.visits += 1
            gp = z.parent.parent
            if z.parent is gp.left:
                uncle = gp.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                        rotations += 1
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_right(gp)
                    rotations += 1
            else:
                uncle = gp.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                        rotations += 1
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_left(gp)
                    rotations += 1
        self.root.color = BLACK
        return rotations

    # -- search ------------------------------------------------------------------

    def _find(self, key: int) -> _Node:
        cur = self.root
        while cur is not self.nil:
            self.visits += 1
            if key < cur.key:
                cur = cur.left
            elif key > cur.key:
                cur = cur.right
            else:
                return cur
        return self.nil

    def get(self, key: int) -> Any:
        """Value stored at ``key``; raises KeyError when absent."""
        node = self._find(key)
        if node is self.nil:
            raise KeyError(key)
        return node.value

    def __contains__(self, key: int) -> bool:
        return self._find(key) is not self.nil

    def floor(self, key: int) -> Optional[Tuple[int, Any]]:
        """Largest (key, value) with key <= the query — interval lookup."""
        best: Optional[_Node] = None
        cur = self.root
        while cur is not self.nil:
            self.visits += 1
            if cur.key == key:
                return cur.key, cur.value
            if cur.key < key:
                best = cur
                cur = cur.right
            else:
                cur = cur.left
        return (best.key, best.value) if best is not None else None

    def min_key(self) -> Optional[int]:
        """Smallest key, or None when empty."""
        if self.root is self.nil:
            return None
        cur = self.root
        while cur.left is not self.nil:
            self.visits += 1
            cur = cur.left
        return cur.key

    def peek_max_key(self) -> Optional[int]:
        """Largest key, or None when empty; counts no visits (a host-side
        check, unlike :meth:`min_key`)."""
        cur = self._last
        if cur is None:
            if self.root is self.nil:
                return None
            cur = self.root
            while cur.right is not self.nil:
                cur = cur.right
        return cur.key

    def shape(self) -> Tuple[int, ...]:
        """Preorder fingerprint of the tree's shape and colours; counts no
        visits. Each node is ``4 * red + 2 * has_left + has_right``, so two
        trees with equal fingerprints differ at most in keys and values."""
        nil = self.nil
        out: List[int] = []
        stack = [self.root] if self.root is not nil else []
        while stack:
            node = stack.pop()
            left, right = node.left, node.right
            out.append((4 if node.color is RED else 0)
                       + (2 if left is not nil else 0)
                       + (1 if right is not nil else 0))
            if right is not nil:
                stack.append(right)
            if left is not nil:
                stack.append(left)
        return tuple(out)

    def reshape(self, fingerprint: Tuple[int, ...]) -> None:
        """Relink the tree's own nodes into the shape and colours that a
        :meth:`shape` fingerprint of as many nodes describes, keeping the
        keys and values in order; counts no visits and drops the spine
        cache."""
        if len(fingerprint) != self.size:
            raise ValueError(f"fingerprint of {len(fingerprint)} nodes for a "
                             f"tree of {self.size}")
        nil = self.nil
        nodes = self._inorder()
        items = [(node.key, node.value) for node in nodes]
        self.root = nil
        slots = [(nil, False)]  # (parent, right child?) in preorder
        for code, node in zip(fingerprint, nodes):
            parent, right = slots.pop()
            node.parent = parent
            node.left = node.right = nil
            node.color = RED if code & 4 else BLACK
            if parent is nil:
                self.root = node
            elif right:
                parent.right = node
            else:
                parent.left = node
            if code & 1:
                slots.append((node, True))
            if code & 2:
                slots.append((node, False))
        for node, (key, value) in zip(self._inorder(), items):
            node.key = key
            node.value = value
        self._last = None

    # -- delete --------------------------------------------------------------------

    def delete(self, key: int) -> Any:
        """Remove ``key``; returns its value (CLRS delete + fixup)."""
        z = self._find(key)
        if z is self.nil:
            raise KeyError(key)
        value = z.value
        self._last = None
        y = z
        y_color = y.color
        if z.left is self.nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self.nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = z.right
            while y.left is not self.nil:
                self.visits += 1
                y = y.left
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        self.size -= 1
        if y_color is BLACK:
            self._delete_fixup(x)
        return value

    def _transplant(self, u: _Node, v: _Node) -> None:
        self.visits += 1
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self.root and x.color is BLACK:
            self.visits += 1
            if x is x.parent.left:
                w = x.parent.right
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self.root
            else:
                w = x.parent.left
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self.root
        x.color = BLACK

    # -- iteration / validation ---------------------------------------------------------

    def _inorder(self) -> List[_Node]:
        """The nodes in key order; counts no visits."""
        out: List[_Node] = []
        stack: List[_Node] = []
        cur = self.root
        while stack or cur is not self.nil:
            while cur is not self.nil:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            out.append(cur)
            cur = cur.right
        return out

    def items(self) -> Iterator[Tuple[int, Any]]:
        """In-order (sorted) iteration; does not count visits."""
        for node in self._inorder():
            yield node.key, node.value

    def keys(self) -> List[int]:
        """All keys in ascending order."""
        return [k for k, _v in self.items()]

    def validate(self) -> None:
        """Assert all red–black invariants; raises AssertionError on breakage."""
        assert self.root.color is BLACK, "root must be black"
        assert self.nil.color is BLACK, "nil must be black"

        def check(node: _Node) -> int:
            if node is self.nil:
                return 1
            if node.color is RED:
                assert node.left.color is BLACK and node.right.color is BLACK, (
                    "red node with red child"
                )
            if node.left is not self.nil:
                assert node.left.key < node.key, "BST order violated (left)"
                assert node.left.parent is node, "broken parent link (left)"
            if node.right is not self.nil:
                assert node.right.key > node.key, "BST order violated (right)"
                assert node.right.parent is node, "broken parent link (right)"
            lh = check(node.left)
            rh = check(node.right)
            assert lh == rh, "black-height mismatch"
            return lh + (0 if node.color is RED else 1)

        check(self.root)
        assert self.size == sum(1 for _ in self.items()), "size mismatch"
        if self._last is not None:
            spine, cur = 1, self.root
            while cur.right is not self.nil:
                spine, cur = spine + 1, cur.right
            assert (cur, spine) == (self._last, self._spine), "stale spine cache"

    def __len__(self) -> int:
        return self.size
