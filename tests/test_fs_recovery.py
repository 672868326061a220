"""Tests for post-crash recovery (tail scan, SN validation, journal,
orphans)."""


from repro.crash.crashmonkey import snapshot_with_content
from repro.fs import NovaFS, PMImage, file_bytes
from repro.fs.recovery import completion_buffer_validator, recover
from repro.fs.structures import (PAGE_SIZE, DentryEntry, FileKind, Inode,
                                 WriteEntry)
from repro.hw.platform import Platform, PlatformConfig
from tests.conftest import run_proc


def _root_with_file(img, ino=1, name="f"):
    """Root dir + one linked file inode (so the orphan scan keeps it)."""
    img.put_inode(0, Inode(0, FileKind.DIR, 2, 0))
    img.put_inode(ino, Inode(ino, FileKind.FILE, 1, 0))
    img.append_log(0, DentryEntry(name, ino, FileKind.FILE, True, 0))
    img.commit_log_tail(0, 1)


def build_and_crash(scenario, upto=None):
    """Run scenario on a recording FS; return the crashed image."""
    fs = NovaFS(Platform(PlatformConfig.single_node()),
                PMImage(record=True)).mount()
    run_proc(fs.engine, scenario(fs))
    k = upto if upto is not None else fs.image.crash_points()
    return fs, fs.image.replay(k)


class TestTailScan:
    def test_uncommitted_log_entry_discarded(self):
        img = PMImage()
        _root_with_file(img)
        img.append_log(1, WriteEntry(0, (0,), PAGE_SIZE, 5))
        # No tail commit: the entry must not survive.
        assert recover(img).inodes[1].size == 0

    def test_committed_entry_survives(self):
        img = PMImage()
        _root_with_file(img)
        img.write_page(0, b"d" * PAGE_SIZE)
        img.append_log(1, WriteEntry(0, (0,), PAGE_SIZE, 5))
        img.commit_log_tail(1, 1)
        m = recover(img).inodes[1]
        assert m.size == PAGE_SIZE
        assert m.index[0].page_id == 0


class TestSnValidation:
    def _image_with_sn_entry(self, completion_sn):
        img = PMImage()
        _root_with_file(img)
        img.append_log(1, WriteEntry(0, (0,), PAGE_SIZE, 5, sns=((3, 7),)))
        img.commit_log_tail(1, 1)
        img.update_completion_buffer(3, completion_sn)
        return img

    def test_entry_with_unfinished_dma_discarded(self):
        img = self._image_with_sn_entry(completion_sn=6)
        rec = recover(img, completion_buffer_validator(img))
        assert rec.inodes[1].size == 0
        assert rec.discarded_entries == 1

    def test_entry_with_finished_dma_kept(self):
        img = self._image_with_sn_entry(completion_sn=7)
        rec = recover(img, completion_buffer_validator(img))
        assert rec.inodes[1].size == PAGE_SIZE

    def test_completion_sn_greater_than_entry_is_valid(self):
        img = self._image_with_sn_entry(completion_sn=100)
        rec = recover(img, completion_buffer_validator(img))
        assert rec.inodes[1].size == PAGE_SIZE

    def test_discard_truncates_everything_after(self):
        img = self._image_with_sn_entry(completion_sn=6)
        img.append_log(1, WriteEntry(1, (1,), 2 * PAGE_SIZE, 9, sns=()))
        img.commit_log_tail(1, 2)
        rec = recover(img, completion_buffer_validator(img))
        # Defensive suffix discard: the later entry goes too.
        assert rec.inodes[1].size == 0

    def test_without_validator_sn_entries_pass(self):
        img = self._image_with_sn_entry(completion_sn=6)
        rec = recover(img)   # sync-filesystem recovery
        assert rec.inodes[1].size == PAGE_SIZE


class TestNamespaceRecovery:
    def test_full_namespace_round_trip(self):
        def scenario(fs):
            yield from fs.mkdir(fs.context(), "/d")
            ino = yield from fs.create(fs.context(), "/d/f")
            yield from fs.write(fs.context(), ino, 0, 2 * PAGE_SIZE)
            yield from fs.create(fs.context(), "/top")
        live, img = build_and_crash(scenario)
        recovered = recover(img).inodes
        assert snapshot_with_content(recovered, img) \
            == snapshot_with_content(live._mem, live.image)

    def test_orphan_inode_dropped(self):
        img = PMImage()
        img.put_inode(0, Inode(0, FileKind.DIR, 2, 0))
        img.put_inode(9, Inode(9, FileKind.FILE, 1, 0))  # no dentry
        assert 9 not in recover(img).inodes
        assert 9 not in img.inodes

    def test_unlink_survives_crash(self):
        def scenario(fs):
            yield from fs.create(fs.context(), "/a")
            yield from fs.create(fs.context(), "/b")
            yield from fs.unlink(fs.context(), "/a")
        _live, img = build_and_crash(scenario)
        names = snapshot_with_content(recover(img).inodes, img)
        assert "/b" in names and "/a" not in names

    def test_rename_crash_is_atomic_at_every_point(self):
        def scenario(fs):
            ino = yield from fs.create(fs.context(), "/old")
            yield from fs.write(fs.context(), ino, 0, PAGE_SIZE)
            yield from fs.rename(fs.context(), "/old", "/new")
        live, _img = build_and_crash(scenario)
        total = live.image.crash_points()
        for k in range(total + 1):
            img = live.image.replay(k)
            names = set(snapshot_with_content(recover(img).inodes, img))
            # Atomicity: exactly one of the two names (or neither,
            # before the create committed) -- never both-or-neither
            # after the rename started with the file existing.
            assert names in ({"/old"}, {"/new"}, set())

    def test_every_prefix_recovers_without_error(self):
        def scenario(fs):
            yield from fs.mkdir(fs.context(), "/d")
            a = yield from fs.create(fs.context(), "/d/a")
            yield from fs.write(fs.context(), a, 0, 3 * PAGE_SIZE)
            yield from fs.link(fs.context(), "/d/a", "/d/b")
            yield from fs.rename(fs.context(), "/d/a", "/d/c")
            yield from fs.unlink(fs.context(), "/d/b")
            yield from fs.truncate(fs.context(), a, PAGE_SIZE)
        live, _ = build_and_crash(scenario)
        for k in range(live.image.crash_points() + 1):
            img = live.image.replay(k)
            snapshot_with_content(recover(img).inodes, img)

    def test_cow_replaced_page_not_mapped(self):
        def scenario(fs):
            ino = yield from fs.create(fs.context(), "/a")
            yield from fs.write(fs.context(), ino, 0, PAGE_SIZE,
                                b"1" * PAGE_SIZE)
            yield from fs.write(fs.context(), ino, 0, PAGE_SIZE,
                                b"2" * PAGE_SIZE)  # CoW
        _live, img = build_and_crash(scenario)
        first, second = img.committed_log(1)
        assert first.page_ids != second.page_ids
        inodes = recover(img).inodes
        mapped = {pm.page_id for m in inodes.values()
                  for pm in m.index.values()}
        assert not mapped & set(first.page_ids)
        assert file_bytes(img, inodes[1], 0, PAGE_SIZE) == b"2" * PAGE_SIZE


class TestImageOnly:
    def test_empty_image_recovers_a_bare_root(self):
        rec = recover(PMImage())
        assert list(rec.inodes) == [0]
        root = rec.inodes[0]
        assert root.kind is FileKind.DIR and root.links == 2
        assert root.lock is None
        assert rec.discarded_entries == 0

    def test_recovery_module_needs_no_machine(self):
        import ast
        import inspect

        from repro.fs import recovery

        machine = ("repro.hw", "repro.sim")
        tree = ast.parse(inspect.getsource(recovery))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names}
        assert not [m for m in imported if m.startswith(machine)]
        for value in vars(recovery).values():
            owner = inspect.getmodule(value)
            if owner is not None:
                assert not owner.__name__.startswith(machine), value
