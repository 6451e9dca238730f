# Frozen copy of the original RedBlackTree, kept as a test oracle: the
# tree under test must charge exactly the visits this one does. Do not
# edit it along with repro.virt.rbtree.
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
        parent = self.nil
        cur = self.root
        while cur is not self.nil:
            self.visits += 1
            parent = cur
            if key < cur.key:
                cur = cur.left
            elif key > cur.key:
                cur = cur.right
            else:
                raise KeyError(f"duplicate key {key}")
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
        self._insert_fixup(node)

    def _insert_fixup(self, z: _Node) -> None:
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
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_right(gp)
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
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_left(gp)
        self.root.color = BLACK

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

    # -- delete --------------------------------------------------------------------

    def delete(self, key: int) -> Any:
        """Remove ``key``; returns its value (CLRS delete + fixup)."""
        z = self._find(key)
        if z is self.nil:
            raise KeyError(key)
        value = z.value
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

    def items(self) -> Iterator[Tuple[int, Any]]:
        """In-order (sorted) iteration; does not count visits."""
        stack: List[_Node] = []
        cur = self.root
        while stack or cur is not self.nil:
            while cur is not self.nil:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            yield cur.key, cur.value
            cur = cur.right

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

    def __len__(self) -> int:
        return self.size
