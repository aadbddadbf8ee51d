"""Unit tests for the serial-parallel task model (repro.core.task)."""

from __future__ import annotations

import pytest

from repro.core.task import (
    LocalTask,
    ParallelTask,
    SerialTask,
    SimpleTask,
    TaskClass,
    chain_of,
    fan_of,
    parallel,
    serial,
)


class TestSimpleTask:
    def test_defaults(self):
        leaf = SimpleTask(2.0)
        assert leaf.ex == 2.0
        assert leaf.pex == 2.0
        assert leaf.node_index is None
        assert leaf.is_leaf

    def test_explicit_pex(self):
        leaf = SimpleTask(2.0, pex=1.5)
        assert leaf.pex == 1.5

    def test_negative_ex_rejected(self):
        with pytest.raises(ValueError):
            SimpleTask(-1.0)

    def test_negative_pex_rejected(self):
        with pytest.raises(ValueError):
            SimpleTask(1.0, pex=-1.0)

    def test_envelopes(self):
        leaf = SimpleTask(2.0, pex=1.5)
        assert leaf.total_ex() == 2.0
        assert leaf.total_pex() == 1.5

    def test_depth_and_count(self):
        leaf = SimpleTask(1.0)
        assert leaf.depth() == 1
        assert leaf.subtask_count() == 1

    def test_negative_node_index_fails_validation(self):
        leaf = SimpleTask(1.0, node_index=-2)
        with pytest.raises(ValueError):
            leaf.validate()

    def test_unnamed_leaf_keeps_no_name_and_renders_its_time(self):
        leaf = SimpleTask(2.5)
        assert leaf.name is None
        assert leaf.notation() == "2.5"
        assert chain_of([1.0, 2.0]).notation() == "[1 2]"


class TestSerialTask:
    def test_total_pex_adds(self):
        task = chain_of([1.0, 2.0, 3.0])
        assert task.total_pex() == 6.0
        assert task.total_ex() == 6.0

    def test_leaves_in_order(self):
        leaves = [SimpleTask(float(i), name=f"t{i}") for i in range(4)]
        task = SerialTask(leaves)
        assert [leaf.name for leaf in task.leaves()] == ["t0", "t1", "t2", "t3"]

    def test_empty_children_rejected(self):
        with pytest.raises(ValueError):
            SerialTask([])

    def test_parent_links_set(self):
        leaves = [SimpleTask(1.0), SimpleTask(2.0)]
        task = SerialTask(leaves)
        assert all(leaf.parent is task for leaf in leaves)

    def test_shared_child_rejected(self):
        leaf = SimpleTask(1.0)
        SerialTask([leaf])
        with pytest.raises(ValueError):
            SerialTask([leaf])

    def test_single_child_allowed(self):
        task = SerialTask([SimpleTask(1.0)])
        assert task.subtask_count() == 1

    def test_validate_passes_for_well_formed_tree(self):
        chain_of([1.0, 2.0]).validate()


class TestParallelTask:
    def test_total_pex_is_max(self):
        task = fan_of([1.0, 5.0, 2.0])
        assert task.total_pex() == 5.0
        assert task.total_ex() == 5.0

    def test_empty_children_rejected(self):
        with pytest.raises(ValueError):
            ParallelTask([])

    def test_subtask_count(self):
        assert fan_of([1.0] * 4).subtask_count() == 4


class TestComposition:
    def test_nested_tree_envelopes(self):
        # [1 [2 || [3 4]] 5]: the middle group's envelope is max(2, 3+4)=7.
        tree = serial(
            SimpleTask(1.0),
            parallel(SimpleTask(2.0), serial(SimpleTask(3.0), SimpleTask(4.0))),
            SimpleTask(5.0),
        )
        assert tree.total_ex() == 1.0 + 7.0 + 5.0
        assert tree.subtask_count() == 5
        assert tree.depth() == 4

    def test_leaves_left_to_right_through_nesting(self):
        a, b, c = SimpleTask(1, name="a"), SimpleTask(2, name="b"), SimpleTask(3, name="c")
        tree = serial(a, parallel(b, c))
        assert [leaf.name for leaf in tree.leaves()] == ["a", "b", "c"]

    def test_notation_rendering(self):
        tree = serial(
            SimpleTask(1.0, name="T1"),
            parallel(SimpleTask(2.0, name="T2"), SimpleTask(3.0, name="T3")),
        )
        assert tree.notation() == "[T1 [T2 || T3]]"

    def test_validate_recurses(self):
        tree = serial(SimpleTask(1.0), parallel(SimpleTask(2.0), SimpleTask(3.0)))
        tree.validate()
        # Break a parent link behind the model's back.
        tree.children[1].children[0].parent = None
        with pytest.raises(ValueError):
            tree.validate()


class TestLocalTask:
    def test_attributes(self):
        task = LocalTask(ex=1.5, node_index=3)
        assert task.ex == 1.5
        assert task.node_index == 3
        assert task.task_class is TaskClass.LOCAL

    def test_negative_ex_rejected(self):
        with pytest.raises(ValueError):
            LocalTask(ex=-1.0, node_index=0)

    def test_repr(self):
        assert "node=2" in repr(LocalTask(ex=1.0, node_index=2))


class TestHelpers:
    def test_chain_of(self):
        task = chain_of([1.0, 2.0])
        assert isinstance(task, SerialTask)
        assert task.subtask_count() == 2

    def test_fan_of(self):
        task = fan_of([1.0, 2.0, 3.0])
        assert isinstance(task, ParallelTask)
        assert task.subtask_count() == 3

    def test_named_constructors(self):
        assert serial(SimpleTask(1.0), name="my-task").name == "my-task"
        assert parallel(SimpleTask(1.0), name="fan").name == "fan"
